package obs

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Span tracing. A Span is one timed unit of work — an ask, a plan, a
// scheduler step, a memo lookup, an agent invocation, a SQL statement —
// with a parent link, a component label and key/value attributes. Spans
// propagate two ways:
//
//   - In-process, via context.Context: StartSpan derives a child of the
//     span carried by ctx (ContextWith/FromContext).
//   - Across stream boundaries, via tokens: the coordinator embeds
//     Span.Token() in the EXECUTE_AGENT directive args and the agent
//     runtime resumes the trace with Tracer.Resume — orchestration crosses
//     goroutines over streams, so the trace context must ride the message,
//     not the call stack.
//
// Completed spans are recorded into a bounded per-session ring
// (Tracer.Session reads it; GET /trace/{session} and bpctl trace render
// it). Components that fire outside any ask (decentralized activations on
// an idle session) produce no spans: StartUnder anchors to the session's
// active root and returns a no-op span when there is none, so rings hold
// coherent ask trees rather than unanchored noise.

// Spans is the process-global tracer, the spans counterpart of Default.
var Spans = NewTracer()

const (
	// DefaultMaxSessions bounds how many per-session rings the tracer
	// retains; beyond it the least-recently-active session's trace is
	// evicted (SetMaxSessions overrides; System wires Config.TraceSessions).
	DefaultMaxSessions = 128
	// ringCapacity bounds each session's span ring; older spans are
	// overwritten (an ask on the hragents suite is ~20-40 spans, so the
	// ring holds the last ~50-100 asks of a session).
	ringCapacity = 2048
)

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is a completed span as recorded in a session ring.
type SpanData struct {
	// ID is unique within the tracer; Parent is 0 for roots.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Component names the producing layer: "session", "coordinator",
	// "scheduler", "memo", "agent", "relational".
	Component string `json:"component"`
	// Name describes the unit of work within the component.
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"duration_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Span is an in-flight span. All methods are safe on a nil receiver — a
// disabled tracer (or an unanchored StartUnder) hands out nil spans and
// instrumentation sites need no conditionals.
type Span struct {
	t         *Tracer
	session   string
	id        uint64
	parent    uint64
	component string
	name      string
	start     time.Time
	// open counts this ask's started-but-unended spans, shared down the
	// tree from the root (via ctx, resume and active-root anchoring). The
	// flight recorder polls it to know when the tree has quiesced.
	open *atomic.Int64

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// SetAttr attaches a key/value attribute (no-op after End).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End completes the span and records it into its session's ring. Ending
// twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.t.record(s.session, SpanData{
		ID: s.id, Parent: s.parent, Component: s.component, Name: s.name,
		Start: s.start, Dur: time.Since(s.start), Attrs: attrs,
	}, s.parent == 0, s.id)
	if s.open != nil {
		s.open.Add(-1)
	}
}

// OpenInTree reports how many spans of this span's ask tree (itself
// included) have started but not yet ended. Zero for nil spans. The
// flight recorder uses it to wait for the tree to quiesce before
// snapshotting — agents end their spans a hair after the answer is
// displayed.
func (s *Span) OpenInTree() int64 {
	if s == nil || s.open == nil {
		return 0
	}
	return s.open.Load()
}

// ID returns the span id (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Token serializes the span identity for propagation across a stream
// boundary ("" for nil); Tracer.Resume parses it back.
func (s *Span) Token() string {
	if s == nil {
		return ""
	}
	return strconv.FormatUint(s.id, 36)
}

// Tracer records spans into bounded per-session rings. The session map
// itself is bounded too: past maxSessions the least-recently-active
// session's trace is evicted, so a daemon churning through millions of
// short sessions holds a constant amount of trace memory.
type Tracer struct {
	nextID atomic.Uint64

	mu       sync.Mutex
	max      int
	sessions map[string]*list.Element // of *sessionTrace
	lru      *list.List               // least-recently-active at the front
}

type sessionTrace struct {
	id string

	mu         sync.Mutex
	ring       []SpanData
	next       int // ring write cursor
	full       bool
	activeRoot uint64
	// rootOpen is the active root's open-span counter; spans anchored or
	// resumed under it (no ctx to inherit through) attach here.
	rootOpen *atomic.Int64
}

// NewTracer creates an empty tracer with the default session bound.
func NewTracer() *Tracer {
	return &Tracer{max: DefaultMaxSessions, sessions: map[string]*list.Element{}, lru: list.New()}
}

// SetMaxSessions re-bounds the per-session ring map (minimum 1), evicting
// least-recently-active sessions if already above the new bound.
func (t *Tracer) SetMaxSessions(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.max = n
	t.evictLocked()
	t.mu.Unlock()
}

// SessionCount returns the number of retained session rings.
func (t *Tracer) SessionCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

func (t *Tracer) evictLocked() {
	for len(t.sessions) > t.max {
		front := t.lru.Front()
		st := front.Value.(*sessionTrace)
		t.lru.Remove(front)
		delete(t.sessions, st.id)
	}
}

// session looks a session's ring up. A create (span activity) bumps the
// session to most-recently-active; pure reads leave the LRU order alone.
func (t *Tracer) session(id string, create bool) *sessionTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.sessions[id]
	if ok {
		if create {
			t.lru.MoveToBack(el)
		}
		return el.Value.(*sessionTrace)
	}
	if !create {
		return nil
	}
	st := &sessionTrace{id: id, ring: make([]SpanData, 0, 64)}
	t.sessions[id] = t.lru.PushBack(st)
	t.evictLocked()
	return st
}

func (t *Tracer) newSpan(session string, parent uint64, component, name string, open *atomic.Int64) *Span {
	if open != nil {
		open.Add(1)
	}
	return &Span{
		t: t, session: session, id: t.nextID.Add(1), parent: parent,
		component: component, name: name, start: time.Now(), open: open,
	}
}

// StartRoot opens a root span and marks it the session's active root:
// until it ends, StartUnder anchors unparented work (stream-triggered
// agents, watched plans) beneath it. Returns nil while the plane is
// disabled.
func (t *Tracer) StartRoot(session, component, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	sp := t.newSpan(session, 0, component, name, new(atomic.Int64))
	st := t.session(session, true)
	st.mu.Lock()
	st.activeRoot = sp.id
	st.rootOpen = sp.open
	st.mu.Unlock()
	return sp
}

// StartUnder opens a span parented to the session's active root. Without an
// active root (no ask in flight, or the plane disabled) it returns nil and
// nothing is recorded.
func (t *Tracer) StartUnder(session, component, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	st := t.session(session, false)
	if st == nil {
		return nil
	}
	st.mu.Lock()
	root, open := st.activeRoot, st.rootOpen
	st.mu.Unlock()
	if root == 0 {
		return nil
	}
	return t.newSpan(session, root, component, name, open)
}

// Resume continues a trace across a stream boundary: token is a parent
// Span.Token() carried in a message. An empty or malformed token falls back
// to StartUnder.
func (t *Tracer) Resume(session, token, component, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	parent, err := strconv.ParseUint(token, 36, 64)
	if err != nil || parent == 0 {
		return t.StartUnder(session, component, name)
	}
	st := t.session(session, false)
	if st == nil {
		return nil
	}
	// A resumed span belongs to whichever ask published the token; the
	// session's active ask is the overwhelmingly common (and only
	// observable) case, so it charges that root's open counter.
	st.mu.Lock()
	open := st.rootOpen
	if st.activeRoot == 0 {
		open = nil
	}
	st.mu.Unlock()
	return t.newSpan(session, parent, component, name, open)
}

// record appends a completed span to the session ring; a completed root
// releases the active-root anchor.
func (t *Tracer) record(session string, d SpanData, isRoot bool, id uint64) {
	st := t.session(session, true)
	st.mu.Lock()
	if len(st.ring) < ringCapacity && !st.full {
		st.ring = append(st.ring, d)
		if len(st.ring) == ringCapacity {
			st.full = true
		}
	} else {
		st.ring[st.next] = d
		st.next = (st.next + 1) % ringCapacity
	}
	if isRoot && st.activeRoot == id {
		st.activeRoot = 0
		st.rootOpen = nil
	}
	st.mu.Unlock()
}

// Session returns the session's recorded spans, oldest first.
func (t *Tracer) Session(session string) []SpanData {
	st := t.session(session, false)
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.full {
		return append([]SpanData(nil), st.ring...)
	}
	out := make([]SpanData, 0, ringCapacity)
	out = append(out, st.ring[st.next:]...)
	out = append(out, st.ring[:st.next]...)
	return out
}

// Tree returns the session's recorded spans belonging to the subtree
// rooted at root (the root itself included), oldest first — the flight
// recorder's one-ask view of a ring that may hold many asks. A root of 0
// returns every recorded span.
func (t *Tracer) Tree(session string, root uint64) []SpanData {
	spans := t.Session(session)
	if root == 0 || len(spans) == 0 {
		return spans
	}
	// Membership cannot assume ring order: a parent usually ends — and so
	// is recorded — after its children, but the ROOT ends the moment the
	// answer displays, a hair before the ask's laggard spans (the posting
	// agent and its scheduler/coordinator ancestors) land behind it. Walk
	// parent links to a fixpoint instead; each pass claims at least one
	// tree level, so iterations are bounded by tree depth.
	keep := make(map[uint64]bool, len(spans))
	keep[root] = true
	for grew := true; grew; {
		grew = false
		for _, d := range spans {
			if !keep[d.ID] && keep[d.Parent] {
				keep[d.ID] = true
				grew = true
			}
		}
	}
	out := make([]SpanData, 0, len(spans))
	for _, d := range spans {
		if keep[d.ID] {
			out = append(out, d)
		}
	}
	return out
}

// Reset drops all recorded traces (test hook).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.sessions = map[string]*list.Element{}
	t.lru = list.New()
	t.mu.Unlock()
}

// ---- context propagation ----

type ctxKey struct{}

// ContextWith returns ctx carrying the span (ctx unchanged for nil spans).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan derives a child span of the span carried by ctx, returning the
// child-carrying context. Without a parent in ctx (or with the plane
// disabled) it returns (ctx, nil): instrumentation is free outside a traced
// request.
func StartSpan(ctx context.Context, component, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || !enabled.Load() {
		return ctx, nil
	}
	sp := parent.t.newSpan(parent.session, parent.id, component, name, parent.open)
	return ContextWith(ctx, sp), sp
}

// Truncate shortens s to at most n bytes without splitting a multi-byte
// UTF-8 rune, appending "..." when anything was cut.
func Truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}
