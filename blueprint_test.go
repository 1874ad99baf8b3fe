package blueprint

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"blueprint/internal/budget"
	"blueprint/internal/hragents"
	"blueprint/internal/llm"
	"blueprint/internal/streams"
	"blueprint/internal/trace"
)

func newSystem(t testing.TB) *System {
	t.Helper()
	// Tests need deterministic routing, so pin a perfect model; accuracy
	// degradation is exercised explicitly in the benchmarks.
	sys, err := New(Config{ModelAccuracy: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestNewDefaults(t *testing.T) {
	sys := newSystem(t)
	if sys.AgentRegistry.Len() != 13 { // 12 case-study agents + task planner
		t.Fatalf("agents = %d", sys.AgentRegistry.Len())
	}
	if sys.DataRegistry.Len() < 5 {
		t.Fatalf("data assets = %d", sys.DataRegistry.Len())
	}
	if sys.Model.Config().Tier != llm.TierLarge {
		t.Fatalf("tier = %s", sys.Model.Config().Tier)
	}
}

func TestFig1ArchitectureWiring(t *testing.T) {
	// The full Fig. 1 loop: user stream -> intent -> NL2Q -> SQL -> summary
	// -> display, through registries and streams only.
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Ask("How many jobs are in San Francisco?", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Summary:") {
		t.Fatalf("answer = %q", out)
	}
	// Observability: every hop is on the streams.
	flow := s.Flow()
	senders := trace.Senders(flow)
	joined := strings.Join(senders, ",")
	for _, want := range []string{"user", hragents.IntentClassifier, hragents.AgenticEmployer, hragents.NL2Q, hragents.SQLExecutor, hragents.QuerySummarizer} {
		if !strings.Contains(joined, want) {
			t.Fatalf("flow missing %s: %v", want, senders)
		}
	}
}

// TestOpenQueryCountsNamedTable: the answer to a count question over a
// named table is that table's count, even where the registry's embedding
// search ranks another table's metadata higher for the question.
func TestOpenQueryCountsNamedTable(t *testing.T) {
	sys := newSystem(t)
	for q, sql := range map[string]string{
		"How many jobs are in San Jose?":   `SELECT COUNT(*) FROM jobs WHERE city = 'San Jose'`,
		"How many applications are there?": `SELECT COUNT(*) FROM applications`,
	} {
		s, err := sys.StartSession("")
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Ask(q, 10*time.Second)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Enterprise.DB.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("n: %d.", res.Rows[0][0].I); !strings.Contains(out, want) {
			t.Fatalf("%q answered %q, want %q (%s)", q, out, want, sql)
		}
	}
}

func TestClickFlow(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Click(map[string]any{"action": "select_job", "job_id": 5}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Job 5") {
		t.Fatalf("click result = %q", out)
	}
	// The display output can arrive before the coordinator service records
	// its result; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.PlanResults()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator executed no plan")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestExecuteUtteranceRunningExample(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, plan, err := s.ExecuteUtterance("I am looking for a data scientist position in SF bay area.")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Intent != "job_search" || len(plan.Steps) != 3 {
		t.Fatalf("plan = %s", plan)
	}
	rendered, _ := res.Final["RENDERED"].(string)
	if rendered == "" {
		t.Fatalf("final = %+v", res.Final)
	}
	// Every presented job is in the Fig. 7 ground truth by construction.
	if !strings.Contains(rendered, "match") {
		t.Fatalf("rendered = %q", rendered)
	}
	if res.Budget.CostSpent <= 0 || res.Budget.Charges < 3 {
		t.Fatalf("budget = %+v", res.Budget)
	}
}

func TestBudgetEnforcedThroughFacade(t *testing.T) {
	sys, err := New(Config{Budget: budget.Limits{MaxCost: 0.000001}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, _, err = s.ExecuteUtterance("I am looking for a data scientist position in SF bay area.")
	if err == nil {
		t.Fatal("micro-budget execution succeeded")
	}
}

func TestSessionIsolation(t *testing.T) {
	sys := newSystem(t)
	s1, err := sys.StartSession("session:a")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := sys.StartSession("session:b")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if _, err := s1.Ask("How many jobs are in Seattle?", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Session b saw none of session a's conversational traffic (its own
	// flow holds only agent ENTER/ADD setup signals).
	for _, step := range s2.Flow() {
		if step.Sender == "user" || step.Kind == streams.Data {
			t.Fatalf("session a traffic leaked into b: %+v", step)
		}
	}
}

func TestDuplicateSessionID(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("session:dup")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := sys.StartSession("session:dup"); err == nil {
		t.Fatal("duplicate session created")
	}
}

func TestAskTimeout(t *testing.T) {
	sys, err := New(Config{DisableStandardAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// No agents listening: Ask must time out cleanly.
	_, err = s.Ask("hello?", 50*time.Millisecond)
	if !errors.Is(err, ErrNoResponse) {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 42 || c.ModelTier != llm.TierLarge || c.Budget.MaxCost != 1.0 {
		t.Fatalf("defaults = %+v", c)
	}
	mc := Config{ModelTier: "bogus"}.withDefaults().modelConfig()
	if mc.Tier != llm.TierLarge {
		t.Fatalf("bogus tier resolved to %s", mc.Tier)
	}
	mc = Config{ModelAccuracy: 0.5}.withDefaults().modelConfig()
	if mc.Accuracy != 0.5 {
		t.Fatalf("accuracy override = %v", mc.Accuracy)
	}
}

// TestDataWriteInvalidatesMemo proves the production invalidation seam end
// to end: a warm coordinator plan is served from memo, and a plain SQL
// write through the enterprise engine (DB.OnWrite -> DataRegistry.Touch ->
// hierarchy propagation -> memo.InvalidateSource) drops the stale entries
// so the next execution recomputes against the new data.
func TestDataWriteInvalidatesMemo(t *testing.T) {
	sys := newSystem(t)
	s, err := sys.StartSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Selecting a job routes through the coordinator (Fig. 9: AE emits a
	// Summarizer plan); SUMMARIZER is Cacheable with Reads: ["hr"].
	// A cold click yields two display messages (the agent's own rendering
	// plus the coordinator service's Final publish); Click returns on the
	// first. Settle the display stream after each click so a leftover
	// message never satisfies the next click's wait.
	settle := func() {
		t.Helper()
		prev := -1
		for i := 0; i < 100; i++ {
			if cur := len(s.Display()); cur == prev {
				return
			} else {
				prev = cur
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	click := func() string {
		t.Helper()
		out, err := s.Click(map[string]any{"action": "select_job", "job_id": 3}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		settle()
		return out
	}
	cold := click()
	if warm := click(); warm != cold {
		t.Fatalf("warm click diverged: %q vs %q", warm, cold)
	}
	if st := sys.MemoStats(); st.Hits == 0 {
		t.Fatalf("repeated click not served from memo: %+v", st)
	}

	// The data changes through the ordinary SQL surface — no registry call:
	// DB.OnWrite bumps hr.applications, the hierarchy propagates to "hr",
	// and SUMMARIZER's memo entry drops.
	if _, err := sys.Enterprise.DB.Exec(
		`INSERT INTO applications VALUES (9001, 3, 'p9001', 'applied', 0.99, 4)`); err != nil {
		t.Fatal(err)
	}
	if sys.MemoStats().Invalidations == 0 {
		t.Fatal("write did not invalidate any memo entries")
	}
	after := click()
	if after == cold {
		t.Fatalf("post-write summary did not reflect the new application: %q", after)
	}
	if !strings.Contains(after, "applied") {
		t.Fatalf("summary missing the new applied application: %q", after)
	}
}
