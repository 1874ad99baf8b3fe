package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blueprint"
	"blueprint/internal/httpapi"
	"blueprint/internal/obs"
	"blueprint/internal/resilience"
	"blueprint/internal/workload"
)

// startDaemon boots a governed System behind a real HTTP listener — the
// remote commands exercise the same wire path they use against a live
// blueprintd. served lists the request paths the daemon has seen so far.
func startDaemon(t *testing.T) (base string, served func() []string) {
	t.Helper()
	sys, err := blueprint.New(blueprint.Config{
		ModelAccuracy:    1.0,
		Governor:         resilience.GovernorConfig{MaxConcurrent: 4},
		SlowAskThreshold: time.Nanosecond, // capture every ask
		EventLevel:       "debug",
		SLO:              obs.SLOConfig{LatencyTarget: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	t.Cleanup(func() {
		obs.SlowAsks.SetThreshold(obs.DefaultSlowThreshold)
		obs.Events.SetLevel(obs.LevelInfo)
	})
	var mu sync.Mutex
	var paths []string
	h := httpapi.New(sys, httpapi.Options{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), paths...)
	}
}

// askOverHTTP creates a session and drives one ask, returning the session id.
func askOverHTTP(t *testing.T, base, text string) string {
	t.Helper()
	resp, err := http.Post(base+"/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := strings.TrimPrefix(created.ID, "session:")
	body, _ := json.Marshal(map[string]string{"text": text})
	resp, err = http.Post(base+"/sessions/"+id+"/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("ask response missing X-Trace-Id")
	}
	return id
}

func TestRemoteCommandsAgainstLiveDaemon(t *testing.T) {
	base, _ := startDaemon(t)
	id := askOverHTTP(t, base, "Summarize the applicants for job 3")

	// trace: the session's span tree.
	var out bytes.Buffer
	deadline := time.Now().Add(5 * time.Second)
	for {
		out.Reset()
		if err := remoteTrace(&out, base, id); err == nil && strings.Contains(out.String(), "session/ask") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never showed the ask root:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "session:"+id) {
		t.Fatalf("trace output missing session id:\n%s", out.String())
	}

	// events: the governed ask's admit decision at debug level.
	out.Reset()
	if err := remoteEvents(&out, base, ""); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "event log: head=") {
		t.Fatalf("events header missing:\n%s", text)
	}
	if !strings.Contains(text, "governor") || !strings.Contains(text, "admit") {
		t.Fatalf("events output missing governor admit:\n%s", text)
	}
	// Level filter drops the debug admits.
	out.Reset()
	if err := remoteEvents(&out, base, "error"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "admit") {
		t.Fatalf("error-level filter kept debug events:\n%s", out.String())
	}

	// slow: list plus one full recording with span tree and breakdown.
	out.Reset()
	if err := remoteSlow(&out, base, ""); err != nil {
		t.Fatal(err)
	}
	text = out.String()
	if !strings.Contains(text, "slow asks: threshold=") || !strings.Contains(text, "slow") {
		t.Fatalf("slow list output:\n%s", text)
	}
	out.Reset()
	if err := remoteSlow(&out, base, "latest"); err != nil {
		t.Fatal(err)
	}
	text = out.String()
	for _, want := range []string{"exemplar", "trace=", "spans (", "session/ask", "cost: $"} {
		if !strings.Contains(text, want) {
			t.Fatalf("slow latest output missing %q:\n%s", want, text)
		}
	}

}

// TestTopReadsMetricsAgainstLiveDaemon asks once through a live daemon and
// runs top. Every series top reads must be present in /metrics (remoteTop
// fails on a missing one instead of printing 0), the ask quantiles must
// come out of the scraped buckets, and top must read only /metrics and
// /slo.
func TestTopReadsMetricsAgainstLiveDaemon(t *testing.T) {
	base, served := startDaemon(t)
	askOverHTTP(t, base, "How many jobs are in San Francisco?")
	before := len(served())
	var out bytes.Buffer
	if err := remoteTop(&out, base); err != nil {
		t.Fatalf("top: %v\n%s", err, out.String())
	}
	text := out.String()
	// The 1ns SLO latency target makes every ask slow, so the tenant's
	// burn line is nonzero.
	for _, want := range []string{
		"asks      total=", "memo      hits=", "stmt      hits=", "sched     steps=",
		"sessions  open=", "resil     admitted=", "          retries=",
		"slo       tenant default", "burn fast=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("top output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "p50=-") {
		t.Fatalf("top shows no ask p50 after an ask:\n%s", text)
	}
	for _, p := range served()[before:] {
		if p != "/metrics" && p != "/slo" {
			t.Fatalf("top read %s; want only /metrics and /slo", p)
		}
	}
}

// TestScrapedQuantilesMatchHistogram: quantiles top recovers from a
// histogram's exposition equal the in-process Histogram.Quantiles, empty
// and populated, +Inf bucket included.
func TestScrapedQuantilesMatchHistogram(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_latency_seconds", "test", obs.LatencyBuckets)
	qs := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	check := func(label string) {
		t.Helper()
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		m, err := workload.ParsePrometheus(b.String())
		if err != nil {
			t.Fatal(err)
		}
		s := &series{m: m}
		got, want := s.quantiles("test_latency_seconds", qs...), h.Quantiles(qs...)
		if len(s.missing) > 0 {
			t.Fatalf("%s: missing %v", label, s.missing)
		}
		for i := range qs {
			if got[i] != want[i] {
				t.Fatalf("%s: q%.2f scraped %g, histogram %g", label, qs[i], got[i], want[i])
			}
		}
	}
	check("empty")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		h.Observe(math.Exp(rng.NormFloat64()*2 - 7)) // ~1µs..1s
	}
	h.Observe(1000) // past the top finite bound: the +Inf bucket
	check("populated")
}

func TestRemoteCommandsConnectionRefused(t *testing.T) {
	var out bytes.Buffer
	if err := remoteTop(&out, "http://127.0.0.1:1"); err == nil {
		t.Fatal("top against a dead daemon must error")
	}
	if err := remoteEvents(&out, "http://127.0.0.1:1", ""); err == nil {
		t.Fatal("events against a dead daemon must error")
	}
	if err := remoteSlow(&out, "http://127.0.0.1:1", ""); err == nil {
		t.Fatal("slow against a dead daemon must error")
	}
	if err := remoteTrace(&out, "http://127.0.0.1:1", "x"); err == nil {
		t.Fatal("trace against a dead daemon must error")
	}
}
