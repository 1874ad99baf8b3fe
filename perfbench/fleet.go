package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blueprint"
	"blueprint/internal/httpapi"
	"blueprint/internal/workload"
)

// fleet-http: an open-loop Poisson load over real TCP against the HTTP API
// configured as blueprintd configures it by default. A fixed population of
// sessions is created in setup and every arrival goes to a uniformly random
// one. A session's user waits for an answer before asking again: an arrival
// for a session with an ask in flight is sent once that ask is answered,
// and the wait counts in its latency. Arrivals follow a fixed ladder of
// rates; the rates are constants, never calibrated to the machine.
const (
	// fleetSessions is the resident session population. With 256 the
	// ladder ran the system near capacity on a 250 MB heap, and ask_p50_ms
	// spread by 0.42 of its median between seeds.
	fleetSessions = 128
	// fleetConns is the number of keep-alive connections, and of workers
	// sending on them.
	fleetConns = 2
	// fleetTexts is the size of the text pool arrivals draw from.
	fleetTexts = 64
	// sloP99 is the p99 latency limit a rate must meet, with no growing
	// backlog, to count as sustained.
	sloP99 = 50 * time.Millisecond
)

// ladder is the fixed rate ladder, asks per second. Each step lasts a third
// of a round's share of --seconds.
var ladder = []struct {
	name string
	rate float64
}{{"low", 110}, {"mid", 140}, {"high", 170}}

// step is one rate step of one round.
type step struct {
	lat     []time.Duration // from scheduled send to answer; failed asks included
	late    []time.Duration // how late the generator sent each ask
	failed  []bool
	backlog int // asks due by the step's end but not yet answered then
}

// arrival is one scheduled ask.
type arrival struct {
	at   time.Duration
	sess int
	text int
}

func schedule(seed int64, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	texts := deck{rng: rng, n: fleetTexts}
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, sess: rng.Intn(fleetSessions), text: texts.next()})
	}
}

func fleetRound(e env) (*round, error) {
	r := &round{}
	t0 := time.Now()
	// What blueprintd builds with its default flags: seed 42, the exact
	// model, no data directory and no admission control.
	sys, err := blueprint.New(blueprint.Config{Seed: 42, ModelAccuracy: 1.0})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	var handler http.Handler = httpapi.New(sys, httpapi.Options{})
	if e.tr != nil {
		hs := &handlerSpans{next: handler, spans: map[string][2]time.Time{}}
		e.tr.handlers, handler = hs, hs
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler: handler, ReadTimeout: 30 * time.Second, ReadHeaderTimeout: 30 * time.Second,
		WriteTimeout: 60 * time.Second, IdleTimeout: 2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: fleetConns, MaxIdleConnsPerHost: fleetConns}
	driver := workload.NewHTTPDriver("http://" + ln.Addr().String())
	driver.Client = &http.Client{Timeout: 30 * time.Second, Transport: transport}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		transport.CloseIdleConnections()
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()

	ids := make([]string, fleetSessions)
	for i := range ids {
		t := time.Now()
		if ids[i], err = driver.CreateSession(); err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		e.sessions.add(&e.sessions.starts, time.Since(t))
	}
	texts := make([]string, 0, fleetTexts)
	for _, q := range workload.Queries(textSeed, fleetTexts) {
		texts = append(texts, q.Text)
	}
	orc, err := buildOracle(sys, texts, e.sessions)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)

	stepDur := time.Duration(float64(e.seconds) / rounds / float64(len(ladder)) * float64(time.Second))
	// busy serializes the asks of each session.
	busy := make([]sync.Mutex, fleetSessions)
	startRound(r, sys)
	start := time.Now()
	for si, st := range ladder {
		arr := schedule(e.seed*7919+int64(si), st.rate, stepDur)
		s := runStep(arr, stepDur, func(a arrival) (bool, askRef) {
			text := texts[a.text]
			busy[a.sess].Lock()
			defer busy[a.sess].Unlock()
			t := time.Now()
			res, err := driver.Ask(ids[a.sess], "default", text, askTimeout)
			ref := askRef{session: ids[a.sess], trace: res.TraceID, start: t, end: time.Now(), viaHTTP: true}
			return err == nil && res.Status == http.StatusOK && orc.check(text, res.Answer), ref
		}, e.tr)
		r.steps = append(r.steps, s)
		for i, d := range s.lat {
			r.asks = append(r.asks, d)
			if !s.failed[i] {
				r.good++
			}
		}
	}
	r.elapsed = time.Since(start)
	finishRound(r, sys)
	r.wrong = int(orc.wrong.Load())
	return r, nil
}

// runStep replays one schedule open-loop over fleetConns workers. A worker
// takes the next due arrival, waits for its time if early, and sends it; an
// arrival whose time has passed is sent at once and its wait counts in its
// latency, so a stall shows in every ask queued behind it.
func runStep(arr []arrival, dur time.Duration, ask func(arrival) (bool, askRef), tr *tracer) step {
	s := step{
		lat: make([]time.Duration, len(arr)), late: make([]time.Duration, len(arr)),
		failed: make([]bool, len(arr)),
	}
	done := make([]time.Duration, len(arr))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < fleetConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p pending
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arr) {
					break
				}
				a := arr[i]
				if wait := a.at - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s.late[i] = time.Since(start) - a.at
				ok, ref := ask(a)
				done[i] = time.Since(start)
				s.lat[i], s.failed[i] = done[i]-a.at, !ok
				if ref.trace != "" {
					tr.add(&p, ref)
				}
			}
			tr.drain(&p)
		}()
	}
	wg.Wait()
	for i := range arr {
		if done[i] > dur {
			s.backlog++
		}
	}
	return s
}

// fleetMetrics adds each rate step's latency and counts, pooled over the
// rounds, the highest rate that met the limit, and the generator's health.
func fleetMetrics(m metrics, rs []*round) error {
	var late []time.Duration
	maxRate, backlog, complete := 0.0, 0, true
	for si, st := range ladder {
		var lat, slo []time.Duration
		sent, failed, backlogged := 0, 0, false
		for _, r := range rs {
			s := r.steps[si]
			lat = append(lat, s.lat...)
			late = append(late, s.late...)
			for i, d := range s.lat {
				// A failed ask misses any latency limit.
				if s.failed[i] {
					d = math.MaxInt64
					failed++
				}
				slo = append(slo, d)
			}
			sent += len(s.lat)
			backlog = max(backlog, s.backlog)
			backlogged = backlogged || s.backlog > fleetConns
		}
		m.set("asks.sent."+st.name, float64(sent), "count")
		m.set("asks.succeeded."+st.name, float64(sent-failed), "count")
		m.set("asks.failed."+st.name, float64(failed), "count")
		m.set("backlogged."+st.name, b2f(backlogged), "bool")
		// A traced run's untraced round alone is too short for a step's
		// p99; the step's latencies are then left out, and so is the rate.
		p50, err50 := percentile(lat, 0.50)
		p99, err99 := percentile(lat, 0.99)
		limit, errSLO := percentile(slo, 0.99)
		if errors.Join(err50, err99, errSLO) != nil {
			complete = false
			continue
		}
		m.set("ask_p50_ms."+st.name, p50, "ms")
		m.set("ask_p99_ms."+st.name, p99, "ms")
		if limit <= ms(sloP99) && !backlogged {
			maxRate = st.rate
		}
	}
	if complete {
		m.set("max_rate_in_slo", maxRate, "1/s")
	}
	p99, err := percentile(late, 0.99)
	if err != nil {
		return err
	}
	m.set("gen.late_p99_ms", p99, "ms")
	m.set("gen.backlog", float64(backlog), "count")
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handlerSpans wraps the HTTP handler to time each request server-side,
// keyed by the trace id the handler sets on every ask response.
type handlerSpans struct {
	next  http.Handler
	mu    sync.Mutex
	spans map[string][2]time.Time
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	if tid := w.Header().Get("X-Trace-Id"); tid != "" {
		h.mu.Lock()
		h.spans[tid] = [2]time.Time{t, end}
		h.mu.Unlock()
	}
}

// take returns and forgets the handler span of a trace.
func (h *handlerSpans) take(tid string) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.spans[tid]
	delete(h.spans, tid)
	return s, ok
}
