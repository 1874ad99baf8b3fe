// benchharness regenerates every figure of the paper as a measured table,
// one per entry of experiments.Registry.
//
// Usage:
//
//	benchharness              # run all experiments
//	benchharness -fig F7      # run one (F1..F10, A1..A6, A8..A12)
//	benchharness -fig A4      # plan-cache ablation (statement-cache hit/miss counters)
//	benchharness -fig A5      # concurrent DAG scheduler: fan-out speedup + multi-session throughput
//	benchharness -fig A6      # step-result memoization: repeated-ask speedup + cross-session dedup
//	benchharness -fig A8      # durability: crash replay vs snapshot restore + warm memo across restart
//	benchharness -fig A9      # front end: shape-keyed plan cache vs exact keying on literal-inlined SQL
//	benchharness -fig A10     # observability: instrumented vs uninstrumented ask throughput
//	benchharness -fig A11     # resilience: overload control under open-loop multi-tenant load
//	benchharness -fig A12     # flight recorder: exemplars, event log, SLO burn over real HTTP
//	benchharness -seed 7      # change the deterministic seed
//	benchharness -short       # reduced iterations/latencies (smoke mode, used by make bench-smoke)
//	benchharness -json DIR    # also write each table as machine-readable DIR/BENCH_<ID>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"blueprint/internal/experiments"
)

func main() {
	var ids []string
	for _, e := range experiments.Registry {
		ids = append(ids, e.ID)
	}
	usage := strings.Join(ids, ", ")
	fig := flag.String("fig", "all", "experiment id to run ("+usage+", or 'all')")
	seed := flag.Int64("seed", 42, "deterministic seed for workloads and the simulated LLM")
	short := flag.Bool("short", false, "smoke mode: reduced iterations and simulated latencies")
	jsonDir := flag.String("json", "", "directory to write BENCH_<ID>.json files (empty: text only)")
	flag.Parse()
	experiments.Short = *short

	all := strings.EqualFold(*fig, "all")
	ran := false
	for _, e := range experiments.Registry {
		if !all && !strings.EqualFold(e.ID, *fig) {
			continue
		}
		ran = true
		t, err := e.Run(*seed)
		if err != nil {
			log.Fatalf("experiment %s: %v", e.ID, err)
		}
		fmt.Println(t)
		if err := writeJSON(*jsonDir, t); err != nil {
			log.Fatal(err)
		}
	}
	if !ran {
		log.Fatalf("unknown experiment %q (want %s, or all)", *fig, usage)
	}
}

// writeJSON persists one table as DIR/BENCH_<ID>.json so CI can archive the
// raw figures next to the rendered text.
func writeJSON(dir string, t *experiments.Table) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+t.ID+".json")
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
