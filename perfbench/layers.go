package main

import (
	"runtime"
	"syscall"
	"time"

	"blueprint"
	"blueprint/internal/durability"
	"blueprint/internal/memo"
	"blueprint/internal/obs"
	"blueprint/internal/relational"
	"blueprint/internal/resilience"
	"blueprint/internal/streams"
)

// readout is one snapshot of the counters the program publishes about
// itself. The benchmark takes one before and one after each timed phase
// and reads the layers from the difference.
type readout struct {
	streams  streams.Stats
	memo     memo.Stats
	stmts    relational.CacheStats
	dur      durability.Stats
	governor resilience.GovernorStats
	registry map[string]float64
	mem      runtime.MemStats
	// cpu is the process's user plus system CPU time: what the asks cost
	// the machine, unaffected by time the host gave to other tenants.
	cpu time.Duration
}

func takeReadout(sys *blueprint.System) readout {
	r := readout{
		streams:  sys.Store.StatsSnapshot(),
		memo:     sys.MemoStats(),
		stmts:    sys.Enterprise.DB.CacheStats(),
		dur:      sys.DurabilityStats(),
		governor: sys.GovernorStats(),
		registry: obs.Default.Snapshot(),
	}
	runtime.ReadMemStats(&r.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r
}

// counters is the difference of two readouts, summed over rounds.
type counters struct {
	msgs, deliveries, dropped     float64
	subscriptions                 float64 // at the end of the phase, not a difference
	memoHits, memoMisses, memoInv float64
	stmtHits, stmtMisses          float64
	appends, appendBytes, fsyncs  float64
	admitted, shed                float64
	retries                       float64
	gcCycles, gcPause, allocBytes float64
	goroutines                    float64 // at the end of the phase
}

func (c *counters) add(a, b readout, goroutines int) {
	c.msgs += float64(b.streams.MessagesAppended - a.streams.MessagesAppended)
	c.deliveries += float64(b.streams.Deliveries - a.streams.Deliveries)
	c.dropped += float64(b.streams.Dropped - a.streams.Dropped)
	c.subscriptions = max(c.subscriptions, float64(b.streams.Subscriptions))
	c.memoHits += float64(b.memo.Hits - a.memo.Hits)
	c.memoMisses += float64(b.memo.Misses - a.memo.Misses)
	c.memoInv += float64(b.memo.Invalidations - a.memo.Invalidations)
	c.stmtHits += float64(b.stmts.Hits - a.stmts.Hits)
	c.stmtMisses += float64(b.stmts.Misses - a.stmts.Misses)
	c.appends += float64(b.dur.Appends - a.dur.Appends)
	c.appendBytes += float64(b.dur.AppendedBytes - a.dur.AppendedBytes)
	c.fsyncs += float64(b.dur.Fsyncs - a.dur.Fsyncs)
	c.admitted += float64(b.governor.Admitted - a.governor.Admitted)
	c.shed += float64(b.governor.Shed - a.governor.Shed)
	const retries = "blueprint_scheduler_step_retries_total"
	c.retries += b.registry[retries] - a.registry[retries]
	c.gcCycles += float64(b.mem.NumGC - a.mem.NumGC)
	c.gcPause += float64(b.mem.PauseTotalNs - a.mem.PauseTotalNs)
	c.allocBytes += float64(b.mem.TotalAlloc - a.mem.TotalAlloc)
	c.goroutines = max(c.goroutines, float64(goroutines))
}

// layerMetrics computes the per-layer metrics of a traced run from the
// ledger, the summed counter differences and the op counts of the traced
// rounds. ops counts asks plus writes.
func layerMetrics(m metrics, t *tracer, c *counters, asks, ops int, sessions *sessionTimes) {
	perAsk := func(v float64) float64 { return ratio(v, float64(asks)) }
	m.set("streams.msgs_per_ask", perAsk(c.msgs), "1/ask")
	m.set("streams.deliveries_per_ask", perAsk(c.deliveries), "1/ask")
	m.set("streams.subscriptions", c.subscriptions, "count")
	m.set("streams.dropped", c.dropped, "count")
	m.set("streams.handoff_ms", t.perAskMS("streams.handoff"), "ms")

	m.set("session.start_ms", meanMS(sessions.starts), "ms")
	m.set("session.close_ms", meanMS(sessions.ends), "ms")
	m.set("session.ask_self_ms", t.perAskMS("session.ask_self"), "ms")
	m.set("session.record_ms", t.perAskMS("session.record"), "ms")

	for _, name := range blueprint.StandardAgents {
		m.set("agent."+name+".self_ms", t.perAskMS("agent."+name), "ms")
		m.set("agent."+name+".count", t.countPerAsk("agent."+name), "1/ask")
	}
	m.set("planner.nl2q_ms", t.perAskMS("planner.nl2q"), "ms")

	m.set("coordinator.steps_per_ask", t.countPerAsk("coordinator.step_self"), "1/ask")
	m.set("coordinator.step_self_ms", t.perAskMS("coordinator.step_self"), "ms")
	m.set("coordinator.plan_self_ms", t.perAskMS("coordinator.plan_self"), "ms")
	m.set("coordinator.retries", c.retries, "count")

	m.set("memo.hits", c.memoHits, "count")
	m.set("memo.misses", c.memoMisses, "count")
	m.set("memo.hit_ratio", ratio(c.memoHits, c.memoHits+c.memoMisses), "ratio")
	m.set("memo.invalidations", c.memoInv, "count")
	m.set("memo.lookup_ms", t.perAskMS("memo.lookup"), "ms")

	m.set("relational.query_ms", t.perAskMS("relational.query"), "ms")
	m.set("relational.queries_per_ask", t.countPerAsk("relational.query"), "1/ask")
	m.set("relational.stmt_hit_ratio", ratio(c.stmtHits, c.stmtHits+c.stmtMisses), "ratio")

	perOp := func(v float64) float64 { return ratio(v, float64(ops)) }
	m.set("durability.appends_per_op", perOp(c.appends), "1/op")
	m.set("durability.bytes_per_op", perOp(c.appendBytes), "B/op")
	m.set("durability.fsyncs", c.fsyncs, "count")
	m.set("durability.appends_per_fsync", ratio(c.appends, c.fsyncs), "ratio")

	m.set("httpapi.handler_ms", ratio(t.handler, float64(t.asks))/float64(time.Millisecond), "ms")
	m.set("httpapi.self_ms", t.perAskMS("httpapi.self"), "ms")
	m.set("httpapi.wire_ms", t.perAskMS("httpapi.wire"), "ms")

	m.set("resilience.admitted", c.admitted, "count")
	m.set("resilience.shed", c.shed, "count")

	m.set("runtime.gc_cycles", c.gcCycles, "count")
	m.set("runtime.gc_pause_ms", c.gcPause/float64(time.Millisecond), "ms")
	m.set("runtime.goroutines", c.goroutines, "count")
	m.set("runtime.alloc_mb_per_1k_asks", perAsk(c.allocBytes)*1000/1e6, "MB")

	// The ledger: every row's mean charge per ask against the mean client
	// time per ask. The rows split the client span exactly, so a residual
	// beyond rounding means a span escaped the attribution.
	var sum float64
	for _, v := range t.rows {
		sum += v
	}
	m.set("ledger.e2e_ms", ratio(t.e2e, float64(t.asks))/float64(time.Millisecond), "ms")
	m.set("ledger.other_ms", ratio(t.rowsWithPrefix("other."), float64(t.asks))/float64(time.Millisecond), "ms")
	m.set("ledger.residual_pct", 100*ratio(sum-t.e2e, t.e2e), "%")
	m.set("trace.asks", float64(t.asks), "count")
	m.set("trace.missing", float64(t.missing), "count")
}

func meanMS(xs []time.Duration) float64 {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return ratio(ms(sum), float64(len(xs)))
}
