package experiments

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"blueprint/internal/agent"
	"blueprint/internal/cluster"
	"blueprint/internal/durability"
	"blueprint/internal/registry"
	"blueprint/internal/streams"
)

// benchAgentEnv builds a store + factory with one synthetic worker agent.
func benchAgentEnv(workers int) (*streams.Store, *agent.Instance, error) {
	store := streams.NewStore()
	spec := registry.AgentSpec{
		Name:        "WORKER",
		Description: "synthetic worker",
		Inputs:      []registry.ParamSpec{{Name: "X"}},
		Outputs:     []registry.ParamSpec{{Name: "Y"}},
	}
	inst, err := agent.Attach(store, "session:bench", agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
		return agent.Outputs{Values: map[string]any{"Y": inv.Inputs["X"]}}, nil
	}), agent.Options{Workers: workers})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, inst, nil
}

// Fig2Deployment measures the cluster simulator (Fig. 2): placement by
// resource class, restart-on-failure MTTR, and scale-out.
func Fig2Deployment(seed int64) (*Table, error) {
	store := streams.NewStore()
	defer store.Close()
	reg := registry.NewAgentRegistry()
	for _, spec := range []registry.AgentSpec{
		{Name: "CPUAGENT", Description: "cpu worker", Inputs: []registry.ParamSpec{{Name: "X"}},
			Outputs: []registry.ParamSpec{{Name: "Y"}}, Deployment: registry.Deployment{Resource: "cpu", Workers: 2}},
		{Name: "GPUMODEL", Description: "gpu model", Inputs: []registry.ParamSpec{{Name: "X"}},
			Outputs: []registry.ParamSpec{{Name: "Y"}}, Deployment: registry.Deployment{Resource: "gpu", Workers: 1}},
	} {
		if err := reg.Register(spec); err != nil {
			return nil, err
		}
	}
	f := agent.NewFactory(reg)
	proc := func(registry.AgentSpec) agent.Processor {
		return func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			return agent.Outputs{Values: map[string]any{"Y": 1}}, nil
		}
	}
	f.RegisterConstructor("CPUAGENT", proc)
	f.RegisterConstructor("GPUMODEL", proc)

	c := cluster.New(store, f, "session:f2")
	defer c.Shutdown()
	for _, n := range []struct {
		name, res string
		capacity  int
	}{{"cpu-1", "cpu", 8}, {"cpu-2", "cpu", 8}, {"gpu-1", "gpu", 4}} {
		if err := c.AddNode(n.name, n.res, n.capacity); err != nil {
			return nil, err
		}
	}

	t := &Table{ID: "F2", Title: "Deployment in enterprise clusters (Fig. 2)"}

	// Placement: CPU agents spread; GPU agents pinned to the GPU node.
	if _, err := c.Scale("CPUAGENT", 6); err != nil {
		return nil, err
	}
	if _, err := c.Scale("GPUMODEL", 2); err != nil {
		return nil, err
	}
	placement := c.Placement()
	t.Rows = append(t.Rows, Row{Series: "placement", Metrics: []Metric{
		{"cpu-1", fmt.Sprint(placement["cpu-1"])},
		{"cpu-2", fmt.Sprint(placement["cpu-2"])},
		{"gpu-1", fmt.Sprint(placement["gpu-1"])},
	}})

	// Restart on failure: kill every CPU container, measure reconcile time.
	ctrs := c.Containers("CPUAGENT", cluster.Running)
	for _, ctr := range ctrs {
		if err := c.Kill(ctr.ID); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	restarted, err := c.Reconcile()
	if err != nil {
		return nil, err
	}
	mttr := time.Since(start)
	t.Rows = append(t.Rows, Row{Series: "failure", Metrics: []Metric{
		{"killed", fmt.Sprint(len(ctrs))},
		{"restarted", fmt.Sprint(restarted)},
		{"recovery", ms(mttr)},
		{"per_container", us(mttr / time.Duration(max(restarted, 1)))},
	}})

	// Scale-out latency.
	start = time.Now()
	if _, err := c.Scale("CPUAGENT", 12); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, Row{Series: "scale 6->12", Metrics: []Metric{
		{"latency", ms(time.Since(start))},
	}})
	return t, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig3AgentModel measures the Fig. 3 agent model: processor round trips
// through streams and worker-pool concurrency scaling.
func Fig3AgentModel(seed int64) (*Table, error) {
	t := &Table{ID: "F3", Title: "Agent model (Fig. 3): stream-triggered processing"}

	// Sequential round-trip latency.
	store, inst, err := benchAgentEnv(4)
	if err != nil {
		return nil, err
	}
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("seq%d", i)
		if err := agent.Execute(store, "session:bench", "WORKER", map[string]any{"X": i}, "", id); err != nil {
			return nil, err
		}
		if d := agent.AwaitDone(store, "session:bench", id); d == nil {
			return nil, fmt.Errorf("no DONE for %s", id)
		}
	}
	seq := time.Since(start)
	inst.Stop()
	store.Close()
	t.Rows = append(t.Rows, Row{Series: "sequential", Metrics: []Metric{
		{"invocations", fmt.Sprint(n)},
		{"latency/inv", us(seq / n)},
		{"throughput", fmt.Sprintf("%.0f inv/s", float64(n)/seq.Seconds())},
	}})

	// Worker-pool scaling with a 2ms simulated processor.
	for _, workers := range []int{1, 4, 8} {
		store := streams.NewStore()
		spec := registry.AgentSpec{
			Name:   "SLOWWORKER",
			Inputs: []registry.ParamSpec{{Name: "X"}}, Outputs: []registry.ParamSpec{{Name: "Y"}},
		}
		inst, err := agent.Attach(store, "session:bench", agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			time.Sleep(2 * time.Millisecond)
			return agent.Outputs{Values: map[string]any{"Y": 1}}, nil
		}), agent.Options{Workers: workers})
		if err != nil {
			store.Close()
			return nil, err
		}
		const m = 64
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("w%d", i)
				_ = agent.Execute(store, "session:bench", "SLOWWORKER", map[string]any{"X": i}, "", id)
				agent.AwaitDone(store, "session:bench", id)
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		inst.Stop()
		store.Close()
		t.Rows = append(t.Rows, Row{Series: fmt.Sprintf("workers=%d", workers), Metrics: []Metric{
			{"tasks", fmt.Sprint(m)},
			{"wall", ms(elapsed)},
			{"speedup_vs_serial", fmt.Sprintf("%.1fx", (2*time.Millisecond*m).Seconds()/elapsed.Seconds())},
		}})
	}
	return t, nil
}

// Fig4PetriTriggering measures the PetriNet triggering mechanism (Fig. 4):
// multi-place transition firing throughput and pairing policies.
func Fig4PetriTriggering(seed int64) (*Table, error) {
	t := &Table{ID: "F4", Title: "PetriNet-inspired triggering (Fig. 4)"}
	for _, places := range []int{2, 4, 8} {
		params := make([]string, places)
		specInputs := make([]registry.ParamSpec, places)
		for i := range params {
			params[i] = fmt.Sprintf("P%d", i)
			specInputs[i] = registry.ParamSpec{Name: params[i]}
		}
		store := streams.NewStore()
		fired := make(chan struct{}, 4096)
		spec := registry.AgentSpec{
			Name: "JOINER", Inputs: specInputs,
			Outputs:    []registry.ParamSpec{{Name: "OUT"}},
			Properties: map[string]any{"listen_all": true},
		}
		inst, err := agent.Attach(store, "session:bench", agent.New(spec, func(ctx context.Context, inv agent.Invocation) (agent.Outputs, error) {
			fired <- struct{}{}
			return agent.Outputs{}, nil
		}), agent.Options{Workers: 4})
		if err != nil {
			store.Close()
			return nil, err
		}
		const tuples = 100
		start := time.Now()
		for i := 0; i < tuples; i++ {
			for _, p := range params {
				if _, err := store.Publish(streams.Message{
					Stream: "session:bench:" + p, Session: "session:bench",
					Kind: streams.Data, Sender: "producer", Param: p, Payload: i,
				}); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < tuples; i++ {
			select {
			case <-fired:
			case <-time.After(30 * time.Second):
				return nil, fmt.Errorf("petri fire timeout at places=%d", places)
			}
		}
		elapsed := time.Since(start)
		inst.Stop()
		store.Close()
		t.Rows = append(t.Rows, Row{Series: fmt.Sprintf("places=%d zip", places), Metrics: []Metric{
			{"transitions", fmt.Sprint(tuples)},
			{"rate", fmt.Sprintf("%.0f fires/s", float64(tuples)/elapsed.Seconds())},
			{"tokens", fmt.Sprint(tuples * places)},
		}})
	}
	t.Notes = append(t.Notes, "a transition fires only when every place holds a token; tokens pair FIFO under zip")
	return t, nil
}

// Fig5DataRegistry measures discovery over growing registries (Fig. 5):
// keyword vs vector search latency and recall@5.
func Fig5DataRegistry(seed int64) (*Table, error) {
	t := &Table{ID: "F5", Title: "Data registry discovery (Fig. 5)"}
	for _, size := range []int{100, 1000, 5000} {
		reg := registry.NewDataRegistry()
		topics := []string{"payroll", "benefits", "recruiting", "postings", "resumes", "skills", "interviews", "offers"}
		for i := 0; i < size; i++ {
			topic := topics[i%len(topics)]
			if err := reg.Register(registry.DataAsset{
				Name:        fmt.Sprintf("src%05d.t%d", i, i),
				Kind:        registry.KindRelational,
				Level:       registry.LevelTable,
				Description: fmt.Sprintf("table %d holding %s records for region %d", i, topic, i%29),
			}); err != nil {
				return nil, err
			}
		}
		const queries = 50
		hitsV, hitsK := 0, 0
		var vecTime, keyTime time.Duration
		for q := 0; q < queries; q++ {
			targetID := (q * 97) % size
			topic := topics[targetID%len(topics)]
			query := fmt.Sprintf("%s records region %d table %d", topic, targetID%29, targetID)
			want := fmt.Sprintf("src%05d.t%d", targetID, targetID)

			start := time.Now()
			vres := reg.SearchVector(query, 5)
			vecTime += time.Since(start)
			for _, h := range vres {
				if h.Asset.Name == want {
					hitsV++
					break
				}
			}
			start = time.Now()
			kres := reg.SearchKeyword(query, 5)
			keyTime += time.Since(start)
			for _, h := range kres {
				if h.Asset.Name == want {
					hitsK++
					break
				}
			}
		}
		t.Rows = append(t.Rows, Row{Series: fmt.Sprintf("assets=%d", size), Metrics: []Metric{
			{"vector_recall@5", pct(float64(hitsV) / queries)},
			{"vector_latency", us(vecTime / queries)},
			{"keyword_recall@5", pct(float64(hitsK) / queries)},
			{"keyword_latency", us(keyTime / queries)},
		}})
	}
	t.Notes = append(t.Notes, "vector search uses feature-hash embeddings of asset metadata (the 'learned representations' of §V-D)")
	return t, nil
}

// AblationStreams measures the streams substrate: append throughput in
// memory and with every append logged to the shared durability engine (the
// path Config.DataDir turns on), and delivery fan-out cost.
func AblationStreams(seed int64) (*Table, error) {
	t := &Table{ID: "A3", Title: "Streams substrate ablation (§V-A)"}
	const n = 5000

	for _, wal := range []bool{false, true} {
		store := streams.NewStore()
		label := "wal=off"
		if wal {
			dir, err := os.MkdirTemp("", "blueprint-bench")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			eng, err := durability.Open(dir, durability.Options{})
			if err != nil {
				return nil, err
			}
			defer eng.Close()
			const subStreams = 1
			if err := eng.Register(subStreams, "streams", store); err != nil {
				return nil, err
			}
			store.SetDurable(eng.Logger(subStreams).Append)
			if err := eng.Recover(); err != nil {
				return nil, err
			}
			label = "wal=on"
		}
		if _, err := store.CreateStream("s", streams.StreamInfo{}); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := store.Append(streams.Message{Stream: "s", Payload: i}); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		store.Close()
		t.Rows = append(t.Rows, Row{Series: label, Metrics: []Metric{
			{"appends", fmt.Sprint(n)},
			{"rate", fmt.Sprintf("%.0f msg/s", float64(n)/elapsed.Seconds())},
			{"latency/msg", us(elapsed / n)},
		}})
	}

	// Fan-out: one append delivered to k subscribers.
	for _, subs := range []int{1, 8, 64} {
		store := streams.NewStore()
		if _, err := store.CreateStream("s", streams.StreamInfo{}); err != nil {
			return nil, err
		}
		var sl []*streams.Subscription
		for i := 0; i < subs; i++ {
			sl = append(sl, store.Subscribe(streams.Filter{Streams: []string{"s"}}, false))
		}
		const m = 500
		start := time.Now()
		var wg sync.WaitGroup
		for _, sub := range sl {
			wg.Add(1)
			go func(sub *streams.Subscription) {
				defer wg.Done()
				for i := 0; i < m; i++ {
					<-sub.C()
				}
			}(sub)
		}
		for i := 0; i < m; i++ {
			if _, err := store.Append(streams.Message{Stream: "s", Payload: i}); err != nil {
				return nil, err
			}
		}
		wg.Wait()
		elapsed := time.Since(start)
		store.Close()
		t.Rows = append(t.Rows, Row{Series: fmt.Sprintf("fanout=%d", subs), Metrics: []Metric{
			{"deliveries", fmt.Sprint(m * subs)},
			{"rate", fmt.Sprintf("%.0f dlv/s", float64(m*subs)/elapsed.Seconds())},
		}})
	}
	return t, nil
}
