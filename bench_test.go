// Benchmarks: one per paper figure (F1..F10) plus the ablations (A1..A3).
// These wrap the same code paths as internal/experiments (which prints the
// EXPERIMENTS.md tables); here they are exposed as standard testing.B
// targets so `go test -bench=. -benchmem` regenerates per-operation costs.
package blueprint_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"blueprint"
	"blueprint/internal/agent"
	"blueprint/internal/budget"
	"blueprint/internal/cluster"
	"blueprint/internal/dataplan"
	"blueprint/internal/durability"
	"blueprint/internal/graphstore"
	"blueprint/internal/llm"
	"blueprint/internal/optimizer"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
	"blueprint/internal/workload"
)

func benchSystem(b *testing.B) (*blueprint.System, *blueprint.Session) {
	b.Helper()
	sys, err := blueprint.New(blueprint.Config{ModelAccuracy: 1.0})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	s, err := sys.StartSession("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return sys, s
}

// BenchmarkFig1_EndToEnd measures one full Fig. 1 request: utterance ->
// intent -> NL2Q -> SQL -> summary -> display.
func BenchmarkFig1_EndToEnd(b *testing.B) {
	_, s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ask("How many jobs are in San Francisco?", 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_FailureRecovery measures kill + reconcile of one container
// (the Fig. 2 restart-on-failure loop).
func BenchmarkFig2_FailureRecovery(b *testing.B) {
	store := streams.NewStore()
	b.Cleanup(func() { store.Close() })
	reg := registry.NewAgentRegistry()
	spec := registry.AgentSpec{
		Name: "W", Description: "worker",
		Inputs: []registry.ParamSpec{{Name: "X"}}, Outputs: []registry.ParamSpec{{Name: "Y"}},
		Deployment: registry.Deployment{Resource: "cpu", Workers: 1},
	}
	if err := reg.Register(spec); err != nil {
		b.Fatal(err)
	}
	f := agent.NewFactory(reg)
	f.RegisterConstructor("W", func(registry.AgentSpec) agent.Processor {
		return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			return agent.Outputs{Values: map[string]any{"Y": 1}}, nil
		}
	})
	c := cluster.New(store, f, "session:b2")
	b.Cleanup(c.Shutdown)
	if err := c.AddNode("n1", "cpu", 4); err != nil {
		b.Fatal(err)
	}
	ctr, err := c.Deploy("W")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Kill(ctr.ID); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Reconcile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_AgentRoundTrip measures one EXECUTE -> processor -> DONE
// round trip over streams (the Fig. 3 agent model).
func BenchmarkFig3_AgentRoundTrip(b *testing.B) {
	store := streams.NewStore()
	b.Cleanup(func() { store.Close() })
	spec := registry.AgentSpec{
		Name: "W", Inputs: []registry.ParamSpec{{Name: "X"}}, Outputs: []registry.ParamSpec{{Name: "Y"}},
	}
	inst, err := agent.Attach(store, "session:b3", agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{Values: map[string]any{"Y": inv.Inputs["X"]}}, nil
	}), agent.Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Stop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("i%d", i)
		if err := agent.Execute(store, "session:b3", "W", map[string]any{"X": i}, "", id); err != nil {
			b.Fatal(err)
		}
		if d := agent.AwaitDone(store, "session:b3", id); d == nil {
			b.Fatal("no DONE")
		}
	}
}

// BenchmarkFig4_PetriTransition measures one two-place transition firing
// (Fig. 4): two tokens in, one processor invocation out.
func BenchmarkFig4_PetriTransition(b *testing.B) {
	store := streams.NewStore()
	b.Cleanup(func() { store.Close() })
	fired := make(chan struct{}, 1024)
	spec := registry.AgentSpec{
		Name:       "J",
		Inputs:     []registry.ParamSpec{{Name: "A"}, {Name: "B"}},
		Outputs:    []registry.ParamSpec{{Name: "OUT"}},
		Properties: map[string]any{"listen_all": true},
	}
	inst, err := agent.Attach(store, "session:b4", agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		fired <- struct{}{}
		return agent.Outputs{}, nil
	}), agent.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Stop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range []string{"A", "B"} {
			if _, err := store.Publish(streams.Message{
				Stream: "session:b4:" + p, Session: "session:b4",
				Kind: streams.Data, Sender: "producer", Param: p, Payload: i,
			}); err != nil {
				b.Fatal(err)
			}
		}
		<-fired
	}
}

// BenchmarkFig5_RegistryDiscovery measures vector discovery over a
// 1000-asset data registry (Fig. 5).
func BenchmarkFig5_RegistryDiscovery(b *testing.B) {
	reg := registry.NewDataRegistry()
	for i := 0; i < 1000; i++ {
		if err := reg.Register(registry.DataAsset{
			Name: fmt.Sprintf("src%04d.t", i), Kind: registry.KindRelational, Level: registry.LevelTable,
			Description: fmt.Sprintf("table %d holding topic %d records", i, i%17),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := reg.Discover(fmt.Sprintf("topic %d records", i%17), 5); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkFig6_TaskPlanning measures producing the Fig. 6 plan for the
// running example.
func BenchmarkFig6_TaskPlanning(b *testing.B) {
	sys, _ := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TaskPlanner.Plan("I am looking for a data scientist position in SF bay area."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_PlanExecution measures executing the Fig. 6 plan under the
// coordinator with budget accounting.
func BenchmarkFig6_PlanExecution(b *testing.B) {
	_, s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ExecuteUtterance("I am looking for a data scientist position in SF bay area."); err != nil {
			b.Fatal(err)
		}
	}
}

func fig7Fixture(b *testing.B) (*dataplan.Planner, *dataplan.Executor, dataplan.TableBinding) {
	b.Helper()
	ent, err := workload.Build(42, workload.SmallScale())
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.NewDataRegistry()
	if err := reg.ImportRelational("hr", "HR database", "conn", ent.DB); err != nil {
		b.Fatal(err)
	}
	if err := reg.ImportGraph("taxonomy", "title taxonomy", "conn", ent.Graph); err != nil {
		b.Fatal(err)
	}
	if err := reg.RegisterLLMSource("gpt-sim", "general knowledge", registry.QoSProfile{CostPerCall: 0.01}); err != nil {
		b.Fatal(err)
	}
	model := llm.New(llm.Config{Name: "b7", CostPer1K: 0.01, Accuracy: 1.0, Seed: 42}, ent.KB)
	planner := dataplan.NewPlanner(reg, ent.KB)
	exec := dataplan.NewExecutor(dataplan.Sources{
		Relational: ent.DB,
		Graphs:     map[string]*graphstore.Graph{"taxonomy": ent.Graph},
		Model:      model,
	})
	tgt, err := dataplan.BuildTarget(ent.DB, "jobs")
	if err != nil {
		b.Fatal(err)
	}
	asset, err := reg.Get("hr.jobs")
	if err != nil {
		b.Fatal(err)
	}
	return planner, exec, dataplan.TableBinding{Asset: asset, Target: tgt}
}

// BenchmarkFig7_DirectPlan measures the direct NL2Q strategy.
func BenchmarkFig7_DirectPlan(b *testing.B) {
	planner, exec, bind := fig7Fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := planner.PlanDirect("data scientist position in SF bay area", bind)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_DecomposedPlan measures the Fig. 7 decomposition
// (Q2NL -> LLM cities, taxonomy titles, select).
func BenchmarkFig7_DecomposedPlan(b *testing.B) {
	planner, exec, bind := fig7Fixture(b)
	needs := planner.Analyze("data scientist position in SF bay area", bind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := planner.PlanDecomposed("data scientist position in SF bay area", bind, needs, "taxonomy")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_ConversationTurn measures one Agentic Employer
// conversational turn (Fig. 8).
func BenchmarkFig8_ConversationTurn(b *testing.B) {
	_, s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ask("Summarize the applicants for job 12", 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_UIClick measures the UI-initiated flow (Fig. 9):
// U -> AE -> TC -> S.
func BenchmarkFig9_UIClick(b *testing.B) {
	_, s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Click(map[string]any{"action": "select_job", "job_id": 1 + i%100}, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_OpenQuery measures the conversation-initiated flow
// (Fig. 10): U -> IC -> AE -> NL2Q -> QE -> QS.
func BenchmarkFig10_OpenQuery(b *testing.B) {
	_, s := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ask("How many jobs are in San Francisco?", 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_MultiSessionAsk measures 4 sessions asking concurrently
// through the event-driven display pipeline (A5): with subscription-driven
// waits (no sleep polling) the wall-clock per round approaches the slowest
// single session, not the sum.
func BenchmarkAblation_MultiSessionAsk(b *testing.B) {
	sys, err := blueprint.New(blueprint.Config{ModelAccuracy: 1.0})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	const sessions = 4
	ss := make([]*blueprint.Session, sessions)
	for i := range ss {
		s, err := sys.StartSession("")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(s.Close)
		ss[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, s := range ss {
			wg.Add(1)
			go func(s *blueprint.Session) {
				defer wg.Done()
				if _, err := s.Ask("How many jobs are in San Francisco?", 30*time.Second); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(sessions), "asks/op")
}

// BenchmarkAblation_MemoColdVsWarmAsk measures a repeated utterance's plan
// execution on the step-result memoization warm path (A6): the first
// execution warms the cache, each iteration then re-plans and executes at
// the residual cost (the criteria transform) with every step whose agent is
// registered Cacheable hitting memo. Uncacheable agents (Profiler, whose
// form display is a side effect) execute every time.
func BenchmarkAblation_MemoColdVsWarmAsk(b *testing.B) {
	sys, s := benchSystem(b)
	const utterance = "find me a data scientist job in san francisco"
	if _, _, err := s.ExecuteUtterance(utterance); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := s.ExecuteUtterance(utterance)
		if err != nil {
			b.Fatal(err)
		}
		cacheable := 0
		for _, st := range res.Steps {
			spec, err := sys.AgentRegistry.Get(st.Agent)
			if err != nil {
				b.Fatal(err)
			}
			if spec.Cacheable {
				cacheable++
			}
		}
		if cacheable == 0 || res.Budget.MemoHits != cacheable {
			b.Fatalf("memo hits = %d, want one per cacheable step (%d of %d steps)", res.Budget.MemoHits, cacheable, len(res.Steps))
		}
	}
	b.StopTimer()
	b.ReportMetric(sys.MemoStats().HitRate()*100, "hit%")
}

// BenchmarkAblation_BudgetCharge measures one budget charge+check (§V-H).
func BenchmarkAblation_BudgetCharge(b *testing.B) {
	bud := budget.New(budget.Limits{MaxCost: 1e12})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bud.Charge("s", 0.001, time.Millisecond, 0.9)
	}
}

// BenchmarkAblation_OptimizerChoose measures one multi-objective selection
// over the model tiers (§IV).
func BenchmarkAblation_OptimizerChoose(b *testing.B) {
	configs := llm.Presets(1)
	obj := optimizer.DefaultObjectives()
	lim := budget.Limits{MinAccuracy: 0.85}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.ChooseModelTier(configs, 500, obj, lim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_StreamsAppend measures raw stream appends (no WAL).
func BenchmarkAblation_StreamsAppend(b *testing.B) {
	store := streams.NewStore()
	b.Cleanup(func() { store.Close() })
	if _, err := store.CreateStream("s", streams.StreamInfo{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Append(streams.Message{Stream: "s", Payload: i}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_StreamsAppendWAL measures appends logged to the shared
// durability engine on a temporary data directory, the path
// Config.DataDir turns on.
func BenchmarkAblation_StreamsAppendWAL(b *testing.B) {
	const subStreams = 1
	store := streams.NewStore()
	eng, err := durability.Open(b.TempDir(), durability.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close(); eng.Close() })
	if err := eng.Register(subStreams, "streams", store); err != nil {
		b.Fatal(err)
	}
	store.SetDurable(eng.Logger(subStreams).Append)
	if err := eng.Recover(); err != nil {
		b.Fatal(err)
	}
	if _, err := store.CreateStream("s", streams.StreamInfo{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Append(streams.Message{Stream: "s", Payload: i}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_StreamsFanout8 measures one append delivered to 8
// subscribers.
func BenchmarkAblation_StreamsFanout8(b *testing.B) {
	store := streams.NewStore()
	b.Cleanup(func() { store.Close() })
	if _, err := store.CreateStream("s", streams.StreamInfo{}); err != nil {
		b.Fatal(err)
	}
	const subs = 8
	done := make(chan struct{}, subs)
	for i := 0; i < subs; i++ {
		sub := store.Subscribe(streams.Filter{Streams: []string{"s"}}, false)
		go func(sub *streams.Subscription) {
			for range sub.C() {
				done <- struct{}{}
			}
		}(sub)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Append(streams.Message{Stream: "s", Payload: i}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < subs; j++ {
			<-done
		}
	}
}

// BenchmarkRelationalIndexedQuery measures an indexed point query on the
// generated jobs table (substrate sanity: the SQL engine is not the
// bottleneck of the figures above).
func BenchmarkRelationalIndexedQuery(b *testing.B) {
	ent, err := workload.Build(42, workload.MediumScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ent.DB.Query(`SELECT id, title FROM jobs WHERE city = 'San Francisco' LIMIT 10`); err != nil {
			b.Fatal(err)
		}
	}
}
