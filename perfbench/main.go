// Command perfbench is the repository's benchmark. It drives the blueprint
// system through its public surface — blueprint.New, StartSession, Ask,
// Close, the enterprise database, and the HTTP API behind a real TCP
// listener — checks every answer against an oracle, and prints the
// end-to-end metrics named in BENCHMARK.json (or, with --trace 1, the
// per-layer ones) as the last line of its output:
//
//	go run . --workload deep-chat --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (run.sh builds it there). See README.md
// for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"blueprint"
	"blueprint/internal/obs"
)

// rounds is how many times a run sets the system up and measures it. Each
// reported figure is the median over rounds, so one round disturbed by the
// machine does not move it.
const rounds = 3

// clients is the number of client goroutines of the closed loops. The host
// of the reference machine takes CPU time away (steal time) the more of its
// two vCPUs a process keeps busy, and how much it takes swings from minute
// to minute: with two closed loops the wall-clock medians spread by a
// quarter to almost a half between runs of the same code.
const clients = 1

// textSeed draws the text pools of every workload. It is fixed so every run
// asks from the same pool: answer sizes differ by two orders of magnitude
// between texts, and a pool redrawn per run would move the figures more
// than the program does.
// --seed draws which text is asked when, and on which session.
const textSeed = 42

// ledgerTolerancePct bounds how far the traced ledger's rows may sum from
// the asks' end-to-end time before the run is declared incorrect.
const ledgerTolerancePct = 1.0

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// spec is the part of BENCHMARK.json this program reads: the metric names
// it must print.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// env is what one round of a workload runs with.
type env struct {
	seed    int64
	seconds int
	// work is a temporary directory inside the checkout, removed at exit.
	work string
	// tr records the ledger of this round's asks; nil when not traced.
	tr *tracer
	// sessions collects session start and close times.
	sessions *sessionTimes
}

// round is what one set-up-and-measure cycle produced.
type round struct {
	setup   time.Duration
	elapsed time.Duration // the timed phase
	asks    []time.Duration
	// good counts the asks answered correctly; the others errored, timed
	// out, were refused or were answered wrongly.
	good int
	// wrong counts the asks answered, but not with the oracle's answer.
	wrong      int
	writes     []time.Duration
	wfailed    int
	heap       uint64 // live heap after a forced GC at the end of the timed phase
	before     readout
	after      readout
	goroutines int
	steps      []step // fleet-http's rate steps
	problem    error  // an output the benchmark found incorrect
}

// failed counts the asks not answered correctly.
func (r *round) failed() int { return len(r.asks) - r.good }

// scenario is one workload: run does one round, extra adds the workload's
// own metrics from the rounds, and procs, when set, is the GOMAXPROCS the
// workload runs the system with.
type scenario struct {
	run   func(env) (*round, error)
	extra func(m metrics, rs []*round) error
	procs int
}

// The closed loops run the whole process — client, agents and collector —
// on one vCPU. With the collector on the other one, a busy process beside
// the benchmark cut deep-chat's asks_per_s by a quarter; on one vCPU it
// moved nothing. fleet-http keeps the default: with one vCPU, a stall of it
// holds up every arrival queued behind it, and a slow phase of the host
// raised fleet-http's ask_p50_ms by half.
var scenarios = map[string]scenario{
	"fleet-http": {run: fleetRound, extra: fleetMetrics},
	"deep-chat":  {run: deepChatRound, procs: 1},
	"write-mix":  {run: writeMixRound, extra: writeMixMetrics, procs: 1},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-http, deep-chat or write-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "run length the workload's op counts and schedules are sized from")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := scenarios[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := sp.EndToEnd
	if *trace == 1 {
		want = sp.PerLayer
	}
	out := metrics{}
	for _, x := range want {
		v, ok := res.metrics[x.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", x.Name)
			return 1
		}
		out[x.Name] = v
	}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d rounds %d\n", *name, *seed, *seconds, *trace, rounds)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-34s %14s %s\n", k, strconv.FormatFloat(res.metrics[k].Value, 'g', 8, 64), res.metrics[k].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "incorrect:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(res.problems) == 0, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("parse %s: %w", path, err)
	}
	return sp, nil
}

// result is a whole run: every metric measured, the op counts and any
// incorrect output found.
type result struct {
	metrics           metrics
	attempted, failed int
	problems          []string
}

// measure runs the rounds and computes every metric. In a traced run the
// rounds alternate traced and untraced, starting traced; the per-layer
// metrics come from the traced rounds and the tracing overhead is the
// difference of the two kinds' median ask_p50_ms.
func measure(w scenario, seed int64, seconds int, traced bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, fmt.Errorf("temporary directory: %w", err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, fmt.Errorf("temporary directory: %w", err)
	}
	defer os.RemoveAll(work)

	tr := newTracer()
	sessions := &sessionTimes{}
	var plain, withTrace []*round
	res := &result{metrics: metrics{}}
	for i := 0; i < rounds; i++ {
		// Each round starts from empty process-wide telemetry, as a fresh
		// daemon would.
		obs.Spans.Reset()
		obs.Events.Reset()
		obs.SlowAsks.Reset()
		e := env{seed: seed, seconds: seconds, work: work, sessions: &sessionTimes{}}
		if traced && i%2 == 0 {
			e.tr, e.sessions = tr, sessions
		}
		r, err := w.run(e)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		if r.problem != nil {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %v", i+1, r.problem))
		}
		if e.tr != nil {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
		res.attempted += len(r.asks) + len(r.writes)
		res.failed += r.failed() + r.wfailed
		runtime.GC()
	}
	if err := endToEnd(res.metrics, plain, w); err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}

	// The traced rounds give the per-layer metrics.
	var c counters
	asks, ops := 0, 0
	for _, r := range withTrace {
		c.add(r.before, r.after, r.goroutines)
		asks += len(r.asks)
		ops += len(r.asks) + len(r.writes)
	}
	layerMetrics(res.metrics, tr, &c, asks, ops, sessions)
	traceM := metrics{}
	if err := endToEnd(traceM, withTrace, w); err != nil {
		return nil, err
	}
	res.metrics.set("check.wrong_answers", traceM["check.wrong_answers"].Value, "count")
	for _, k := range []string{"gen.late_p99_ms", "gen.backlog", "relational.exec_ms"} {
		res.metrics.set(k, traceM[k].Value, traceM[k].Unit)
	}
	over := traceM["ask_p50_ms"].Value - res.metrics["ask_p50_ms"].Value
	res.metrics.set("trace.overhead_ms", over, "ms")
	res.metrics.set("trace.overhead_pct", 100*ratio(over, res.metrics["ask_p50_ms"].Value), "%")
	if p := res.metrics["ledger.residual_pct"].Value; p > ledgerTolerancePct || p < -ledgerTolerancePct {
		res.problems = append(res.problems, fmt.Sprintf("ledger rows sum %.3f%% away from the asks' end-to-end time (tolerance %.1f%%)", p, ledgerTolerancePct))
	}
	if tr.asks == 0 || float64(tr.missing) > 0.01*float64(tr.asks+tr.missing) {
		res.problems = append(res.problems, fmt.Sprintf("span trees found for %d asks, missing for %d", tr.asks, tr.missing))
	}
	return res, nil
}

// endToEnd computes the metrics every workload reports, as medians over
// the given rounds, plus the workload's own.
func endToEnd(m metrics, rs []*round, w scenario) error {
	var setup, p50, p99, rate, heap, cpu []float64
	sent, failed, wrong := 0, 0, 0
	for _, r := range rs {
		a, err := percentile(r.asks, 0.50)
		if err != nil {
			return err
		}
		b, err := percentile(r.asks, 0.99)
		if err != nil {
			return err
		}
		setup = append(setup, r.setup.Seconds())
		p50, p99 = append(p50, a), append(p99, b)
		rate = append(rate, float64(r.good)/r.elapsed.Seconds())
		heap = append(heap, float64(r.heap)/1e6)
		cpu = append(cpu, ms(r.after.cpu-r.before.cpu)/float64(len(r.asks)))
		sent += len(r.asks)
		failed += r.failed()
		wrong += r.wrong
	}
	m.set("setup_s", median(setup), "s")
	m.set("ask_p50_ms", median(p50), "ms")
	m.set("ask_p99_ms", median(p99), "ms")
	m.set("asks_per_s", median(rate), "1/s")
	m.set("heap_live_mb", median(heap), "MB")
	m.set("cpu_ms_per_ask", median(cpu), "ms")
	m.set("asks.sent", float64(sent), "count")
	m.set("asks.succeeded", float64(sent-failed), "count")
	m.set("asks.failed", float64(failed), "count")
	m.set("asks.per_round", float64(sent/len(rs)), "count")
	m.set("failed_ratio", ratio(float64(failed), float64(sent)), "ratio")
	m.set("check.wrong_answers", float64(wrong), "count")
	m.set("gen.late_p99_ms", 0, "ms")
	m.set("gen.backlog", 0, "count")
	m.set("relational.exec_ms", 0, "ms")
	if w.extra != nil {
		return w.extra(m, rs)
	}
	return nil
}

// startRound begins the timed phase: a forced GC first, so the phase's
// collections start from a fresh cycle rather than wherever set-up left the
// collector (a round sees only a handful of cycles of a heap this size),
// then the counters.
func startRound(r *round, sys *blueprint.System) {
	runtime.GC()
	r.before = takeReadout(sys)
}

// finishRound takes the end-of-phase readings every workload records: the
// live heap after a forced GC, the goroutine count and the counters.
func finishRound(r *round, sys *blueprint.System) {
	r.goroutines = runtime.NumGoroutine()
	runtime.GC()
	r.after = takeReadout(sys)
	r.heap = r.after.mem.HeapAlloc
}
