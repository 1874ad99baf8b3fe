// Package experiments regenerates every figure of the paper as a measured
// table (the paper has no numeric tables; Figures 1-10 are its evaluation
// surface). Each Fig* function runs the corresponding system behaviour and
// returns the series recorded in EXPERIMENTS.md. cmd/benchharness prints
// them; bench_test.go wraps the same paths as testing.B benchmarks.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Short reduces iteration counts, fan-out widths and simulated latencies so
// a smoke run (make bench-smoke, cmd/benchharness -short) finishes in
// seconds while still exercising every measured path.
var Short bool

// Metric is one measured value.
type Metric struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Row is one series point of an experiment.
type Row struct {
	Series  string   `json:"series"`
	Metrics []Metric `json:"metrics"`
}

// Table is one experiment's result. The JSON shape is what benchharness
// -json writes as BENCH_<ID>.json for CI artifacts.
type Table struct {
	ID    string   `json:"id"` // "F1".."F10", "A1".."A12"
	Title string   `json:"title"`
	Rows  []Row    `json:"rows"`
	Notes []string `json:"notes,omitempty"`
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	width := 10
	for _, r := range t.Rows {
		if len(r.Series) > width {
			width = len(r.Series)
		}
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s", width, r.Series)
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "  %s=%s", m.Name, m.Value)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Experiment is one registered figure or ablation.
type Experiment struct {
	ID  string // "F1".."F10", "A1".."A12"
	Run func(seed int64) (*Table, error)
}

// Registry lists every experiment in run order. All and cmd/benchharness
// (its -fig lookup and usage text) derive from it. A7 is retired: its
// compiled-vs-interpreted floor is TestCompiledAllocsBelowOracle.
var Registry = []Experiment{
	{"F1", Fig1EndToEnd},
	{"F2", Fig2Deployment},
	{"F3", Fig3AgentModel},
	{"F4", Fig4PetriTriggering},
	{"F5", Fig5DataRegistry},
	{"F6", Fig6TaskPlan},
	{"F7", Fig7DataPlan},
	{"F8", Fig8Conversation},
	{"F9", Fig9UIFlow},
	{"F10", Fig10ConversationFlow},
	{"A1", AblationBudget},
	{"A2", AblationOptimizer},
	{"A3", AblationStreams},
	{"A4", AblationPlanCache},
	{"A5", AblationScheduler},
	{"A6", AblationMemo},
	{"A8", AblationDurability},
	{"A9", FrontendShapeCache},
	{"A10", AblationObservability},
	{"A11", AblationResilience},
	{"A12", FlightRecorder},
}

// All runs every registered experiment (deterministic seed) and returns
// the tables in registry order.
func All(seed int64) ([]*Table, error) {
	out := make([]*Table, 0, len(Registry))
	for _, e := range Registry {
		t, err := e.Run(seed)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ---- shared formatting helpers ----

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
}

func dollars(v float64) string { return fmt.Sprintf("$%.5f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// median returns the middle element of xs (the upper one for an even
// count) without reordering xs.
func median[T cmp.Ordered](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
