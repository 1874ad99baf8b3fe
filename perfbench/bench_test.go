package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]time.Duration, 1000)
	for i := range xs {
		// Reverse order: percentile must sort.
		xs[i] = time.Duration(1000-i) * time.Millisecond
	}
	got, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	// Nearest rank 990 of 1..1000 ms leaves 991..1000 — ten samples — above.
	if got != 990 {
		t.Fatalf("p99 = %v ms, want 990", got)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves nine beyond it and must be refused")
	}
	if p50, err := percentile(xs[:3], 0.50); err != nil || p50 != 999 {
		t.Fatalf("p50 of 3 samples = %v, %v; want 999", p50, err)
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func byName(s *span, _ time.Duration) string { return s.name }

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "root", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "a", start: 1 * ms, end: 5 * ms},
		{id: 3, parent: 1, name: "b", start: 3 * ms, end: 8 * ms},
		// Ends after the root: only its part inside the root counts.
		{id: 4, parent: 3, name: "c", start: 7 * ms, end: 12 * ms},
	}
	got := attribute(spans, 1, byName)
	// The root's self time is its duration minus the union of its
	// children (1..8 ms), not minus their sum. a and b share 3..5 ms, and
	// c covers b from 7 ms on.
	want := map[string]float64{
		"root": float64(3 * ms),
		"a":    float64(3 * ms),
		"b":    float64(3 * ms),
		"c":    float64(1 * ms),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != float64(10*ms) {
		t.Fatalf("charges sum to %v, want the root's 10ms", time.Duration(sum))
	}
}

func TestLedgerSplitsRootIntoSessionAndHandoff(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{id: clientSpanID, component: compClient, start: 0, end: 100 * us},
		{id: 7, parent: clientSpanID, component: "session", name: "ask", start: 10 * us, end: 95 * us},
		{id: 8, parent: 7, component: "agent", name: "NL2Q", start: 20 * us, end: 40 * us},
		{id: 9, parent: 7, component: "agent", name: "SQLEXECUTOR", start: 50 * us, end: 90 * us},
	}
	from, to := interior(spans, 7)
	got := attribute(spans, clientSpanID, ledgerRow(true, 7, from, to))
	want := map[string]float64{
		"session.record":    float64(15 * us), // outside the program's root
		"session.ask_self":  float64(15 * us), // 10..20 and 90..95
		"streams.handoff":   float64(10 * us), // 40..50, between agents
		"agent.NL2Q":        float64(20 * us),
		"agent.SQLEXECUTOR": float64(40 * us),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger = %v, want %v", got, want)
	}
}

func TestSeededGeneration(t *testing.T) {
	a, b := schedule(1, 100, time.Second), schedule(1, 100, time.Second)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same schedule")
	}
	if reflect.DeepEqual(a, schedule(2, 100, time.Second)) {
		t.Fatal("another seed must give another schedule")
	}
	for _, x := range a {
		if x.at <= 0 || x.at >= time.Second || x.sess < 0 || x.sess >= fleetSessions || x.text < 0 || x.text >= fleetTexts {
			t.Fatalf("arrival out of range: %+v", x)
		}
	}
	if n := len(schedule(3, 100, 100*time.Second)); math.Abs(float64(n)-10000) > 500 {
		t.Fatalf("100/s over 100s gave %d arrivals", n)
	}

	d := deck{rng: rand.New(rand.NewSource(1)), n: 5}
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for k := 0; k < 5; k++ {
			seen[d.next()] = true
		}
		if len(seen) != 5 {
			t.Fatalf("deck round %d dealt %v, want each of 0..4 once", round, seen)
		}
	}

	w1, w2 := writeMixTexts(1), writeMixTexts(1)
	if len(w1) != jobSet+cityTexts || !reflect.DeepEqual(w1, w2) {
		t.Fatalf("the same seed must give the same %d texts, got %v and %v", jobSet+cityTexts, w1, w2)
	}
	if reflect.DeepEqual(w1, writeMixTexts(2)) {
		t.Fatal("another seed must give other texts")
	}

	o1, o2 := writeMixOps(1, 0, 400, len(w1)), writeMixOps(1, 0, 400, len(w1))
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("the same seed must give the same write-mix ops")
	}
	if reflect.DeepEqual(o1, writeMixOps(2, 0, 400, len(w1))) {
		t.Fatal("another seed must give other write-mix ops")
	}
	inserted := map[int64]bool{}
	writes := 0
	for k, o := range o1 {
		if o.write != (k%writeEvery == writeEvery-1) {
			t.Fatalf("op %d: write = %v", k, o.write)
		}
		switch {
		case !o.write:
			if o.text < 0 || o.text >= len(w1) {
				t.Fatalf("op %d asks text %d of %d", k, o.text, len(w1))
			}
		case o.update:
			writes++
			if !inserted[o.id] {
				t.Fatalf("op %d updates %d, which no earlier op inserted", k, o.id)
			}
		default:
			writes++
			if inserted[o.id] || o.job < 101 || o.job > 200 {
				t.Fatalf("op %d inserts id %d for job %d", k, o.id, o.job)
			}
			inserted[o.id] = true
		}
	}
	if writes != len(o1)/writeEvery || len(inserted) == 0 || len(inserted) == writes {
		t.Fatalf("%d writes, %d inserts: want every %dth op a write, inserts and updates both", writes, len(inserted), writeEvery)
	}
}

func TestOracleCountsMismatches(t *testing.T) {
	o := &oracle{want: map[string]string{"q1": "a1", "q2": "a2"}}
	checks := []struct {
		text, got string
		ok        bool
	}{
		{"q1", "a1", true},
		{"q1", "a2", false}, // the answer to another question
		{"q2", "a2", true},
		{"q2", "", false},
		{"q3", "a1", false}, // a text the oracle never saw
	}
	for _, c := range checks {
		if ok := o.check(c.text, c.got); ok != c.ok {
			t.Errorf("check(%q, %q) = %v, want %v", c.text, c.got, ok, c.ok)
		}
	}
	if n := o.wrong.Load(); n != 3 {
		t.Fatalf("wrong = %d, want 3", n)
	}
}
