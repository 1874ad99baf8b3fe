package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"blueprint/internal/obs"
)

// span is one timed interval of an ask's tree: the benchmark's own spans
// (the client call, the HTTP handler) and the program's spans read back
// from obs.Spans. Times are offsets from the ask's start.
type span struct {
	id, parent uint64
	component  string
	name       string
	start, end time.Duration
}

// attribute charges every instant of the root's interval to the innermost
// spans open at that instant, split evenly when several are (parallel plan
// steps, agents overlapping on their goroutines). A span with no open
// sibling thus gets its self time — its duration minus the part its
// children cover — and the charges sum to the root's duration. Children are
// first clipped to their parent's interval; what falls outside (a span
// ending after the answer reached the caller) is charged to nobody.
//
// row names the ledger row a span's share at instant `at` goes to.
func attribute(spans []span, root uint64, row func(s *span, at time.Duration) string) map[string]float64 {
	byID := make(map[uint64]int, len(spans))
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
		if s.id != root {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	ri, ok := byID[root]
	if !ok {
		return nil
	}
	// Clip top-down, keeping only spans that still have an interval.
	kept := []span{spans[ri]}
	for q := 0; q < len(kept); q++ {
		p := kept[q]
		for _, ci := range children[p.id] {
			c := spans[ci]
			c.start, c.end = max(c.start, p.start), min(c.end, p.end)
			if c.end > c.start {
				kept = append(kept, c)
			}
		}
	}
	cuts := make([]time.Duration, 0, 2*len(kept))
	for _, s := range kept {
		cuts = append(cuts, s.start, s.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	out := map[string]float64{}
	var open, inner []*span
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b == a {
			continue
		}
		open = open[:0]
		for k := range kept {
			if kept[k].start <= a && kept[k].end >= b {
				open = append(open, &kept[k])
			}
		}
		inner = inner[:0]
		for _, s := range open {
			leaf := true
			for _, o := range open {
				if o.parent == s.id && o.id != s.id {
					leaf = false
					break
				}
			}
			if leaf {
				inner = append(inner, s)
			}
		}
		share := float64(b-a) / float64(len(inner))
		for _, s := range inner {
			out[row(s, a)] += share
		}
	}
	return out
}

// Benchmark-owned span components: the client's call and, over HTTP, the
// server-side handler wrapper.
const (
	compClient  = "bench"
	compHandler = "httpapi"
)

// ledgerRow maps a span to the layer it belongs to. The program's root
// ask span is split: its uncovered time before its first descendant starts
// and after its last one ends is the session's own work (posting, history
// reads, the display wait); its uncovered time in between is messages
// waiting in streams for the next agent — the handoff.
func ledgerRow(inProcess bool, rootSpan uint64, interiorFrom, interiorTo time.Duration) func(*span, time.Duration) string {
	return func(s *span, at time.Duration) string {
		switch s.component {
		case compClient:
			if inProcess {
				return "session.record"
			}
			return "httpapi.wire"
		case compHandler:
			return "httpapi.self"
		case "session":
			if s.id == rootSpan && at >= interiorFrom && at < interiorTo {
				return "streams.handoff"
			}
			return "session.ask_self"
		case "agent":
			return "agent." + s.name
		case "planner":
			return "planner." + s.name
		case "coordinator":
			return "coordinator.plan_self"
		case "scheduler":
			return "coordinator.step_self"
		case "memo":
			return "memo.lookup"
		case "relational":
			return "relational.query"
		}
		return "other." + s.component
	}
}

// askRef identifies one finished ask whose span tree the tracer will read.
type askRef struct {
	session, trace string
	start, end     time.Time
	// viaHTTP marks an ask sent over the HTTP API, whose handler span the
	// tracer's handlerSpans holds.
	viaHTTP bool
}

// tracer accumulates the per-layer ledger of a traced run. Clients hand it
// finished asks; it reads their trees from obs.Spans a few asks later, once
// the agents' laggard spans have ended, and folds them into the totals.
type tracer struct {
	// handlers times the HTTP handler of the round being traced.
	handlers *handlerSpans

	mu      sync.Mutex
	rows    map[string]float64 // ledger row -> total ns
	counts  map[string]int     // ledger row -> spans seen
	asks    int
	e2e     float64 // total ns of the asks' client spans
	handler float64 // total ns of the handler spans
	missing int     // asks whose tree was evicted before it was read
}

func newTracer() *tracer {
	return &tracer{rows: map[string]float64{}, counts: map[string]int{}}
}

// batchSize is how many finished asks a client holds before reading their
// trees: few enough that neither a session's span ring nor the tracer's
// session LRU has moved past them, many enough to read a deep session's
// ring once for several asks.
const batchSize = 8

// pending is one client's finished asks not yet folded in.
type pending struct{ refs []askRef }

// add queues a finished ask and folds in all but the newest once the batch
// is full (the newest may still have spans open).
func (t *tracer) add(p *pending, r askRef) {
	if t == nil {
		return
	}
	p.refs = append(p.refs, r)
	if len(p.refs) >= batchSize {
		n := len(p.refs) - 1
		t.fold(p.refs[:n])
		p.refs = append(p.refs[:0], p.refs[n])
	}
}

// drain folds every queued ask once its spans have settled.
func (t *tracer) drain(p *pending) {
	if t == nil || len(p.refs) == 0 {
		return
	}
	time.Sleep(20 * time.Millisecond)
	t.fold(p.refs)
	p.refs = p.refs[:0]
}

// fold reads each session's spans once and adds the asks' ledgers.
func (t *tracer) fold(refs []askRef) {
	bySession := map[string][]obs.SpanData{}
	for _, r := range refs {
		if _, ok := bySession[r.session]; !ok {
			bySession[r.session] = obs.Spans.Tree(r.session, 0)
		}
	}
	for _, r := range refs {
		var handler [2]time.Time
		ok := true
		if r.viaHTTP {
			handler, ok = t.handlers.take(r.trace)
		}
		spans, root, found := askSpans(bySession[r.session], r, handler)
		t.mu.Lock()
		if !ok || !found {
			t.missing++
			t.mu.Unlock()
			continue
		}
		from, to := interior(spans, root)
		row := ledgerRow(!r.viaHTTP, root, from, to)
		rows := attribute(spans, clientSpanID, row)
		t.asks++
		t.e2e += float64(r.end.Sub(r.start))
		if r.viaHTTP {
			t.handler += float64(handler[1].Sub(handler[0]))
		}
		for k, v := range rows {
			t.rows[k] += v
		}
		for i := range spans {
			t.counts[row(&spans[i], -1)]++
		}
		t.mu.Unlock()
	}
}

// Ids of the benchmark's own spans; program span ids start at 1 and grow,
// so these sit above any of them.
const (
	clientSpanID  = ^uint64(0)
	handlerSpanID = ^uint64(0) - 1
)

// askSpans assembles one ask's tree: the client span, the handler span when
// there is one, and the program's tree under its root — the session/ask
// span carrying the ask's trace id.
func askSpans(recorded []obs.SpanData, r askRef, handler [2]time.Time) ([]span, uint64, bool) {
	var root uint64
	for _, d := range recorded {
		if d.Parent == 0 && d.Component == "session" && hasAttr(d.Attrs, "trace", r.trace) {
			root = d.ID
			break
		}
	}
	if root == 0 {
		return nil, 0, false
	}
	off := func(t time.Time) time.Duration { return t.Sub(r.start) }
	spans := []span{{id: clientSpanID, component: compClient, name: "ask", start: 0, end: off(r.end)}}
	rootParent := clientSpanID
	if r.viaHTTP {
		spans = append(spans, span{id: handlerSpanID, parent: clientSpanID, component: compHandler,
			name: "handler", start: off(handler[0]), end: off(handler[1])})
		rootParent = handlerSpanID
	}
	in := map[uint64]bool{root: true}
	for grew := true; grew; {
		grew = false
		for _, d := range recorded {
			if !in[d.ID] && in[d.Parent] {
				in[d.ID], grew = true, true
			}
		}
	}
	for _, d := range recorded {
		if !in[d.ID] {
			continue
		}
		s := span{id: d.ID, parent: d.Parent, component: d.Component, name: d.Name,
			start: off(d.Start), end: off(d.Start.Add(d.Dur))}
		if d.ID == root {
			s.parent = rootParent
		}
		spans = append(spans, s)
	}
	return spans, root, true
}

// interior bounds the stretch of the root span between its first
// descendant's start and its last descendant's end.
func interior(spans []span, root uint64) (from, to time.Duration) {
	first := true
	for _, s := range spans {
		if s.component == compClient || s.component == compHandler || s.id == root {
			continue
		}
		if first || s.start < from {
			from = s.start
		}
		if first || s.end > to {
			to = s.end
		}
		first = false
	}
	return from, to
}

func hasAttr(attrs []obs.Attr, key, value string) bool {
	for _, a := range attrs {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// perAskMS is a row's mean charge per ask in milliseconds.
func (t *tracer) perAskMS(row string) float64 {
	return ratio(t.rows[row], float64(t.asks)) / float64(time.Millisecond)
}

// countPerAsk is the mean number of a row's spans per ask.
func (t *tracer) countPerAsk(row string) float64 {
	return ratio(float64(t.counts[row]), float64(t.asks))
}

// rowsWithPrefix sums the rows whose name starts with prefix.
func (t *tracer) rowsWithPrefix(prefix string) float64 {
	var sum float64
	for k, v := range t.rows {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}
