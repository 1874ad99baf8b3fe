# Build, verify and bench targets. `make ci` is what the GitHub Actions
# workflow runs on every push: formatting, vet, build, the full test suite
# under the race detector, the chaos suite, one iteration of every benchmark
# and the bench-smoke figures.

GO ?= go

.PHONY: all build test race vet fmt-check bench bench-1x bench-smoke chaos fuzz loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Relational-engine benchmarks, including the statement-cache comparison
# (BenchmarkPointQueryUncached vs Cached/Prepared), the zero-allocation
# tokenizer/fingerprint sweeps, and the shape-vs-exact keyed cache pair.
bench:
	$(GO) test ./internal/relational/ -run XXX -bench . -benchmem
	$(GO) run ./cmd/benchharness -fig A9

# One iteration of every Benchmark* in the module, so a benchmark whose
# setup or invariant has rotted fails CI instead of waiting for someone to
# run it. This includes the relational *Interpreted/*Compiled pairs
# (compiled executor against the test-only interpreted oracle).
bench-1x:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# Fuzz the tokenizer against the old slice-building lexer for a short burst
# (seeds under internal/relational/testdata/fuzz are always replayed by
# plain `go test`).
fuzz:
	$(GO) test ./internal/relational/ -run FuzzTokenize -fuzz FuzzTokenize -fuzztime 30s

# Smoke run for the concurrency/reuse/durability layers: regenerates the A5
# table (concurrent DAG scheduler fan-out speedup + multi-session
# throughput), the A6 table (step-result memoization: repeated-ask speedup,
# cross-session single-flight dedup, invalidation) and the A8 table
# (durability: crash replay vs snapshot restore, warm memo across restart)
# in short mode. A6 and A8 enforce their own invariants — a warm run that
# re-executes (hit-rate collapse), a concurrent identical workload that does
# not coalesce (dedup loss), a crash restart that loses rows, or a restarted
# process whose repeated ask misses memo (warm-memo loss) makes the run
# fail; A8's >= 5x snapshot-vs-replay floor is enforced in full mode and
# reported here, as are A9's shape-cache floors (>= 90% hit rate, >= 3x
# over exact keying on literal-inlined statements) and A10's telemetry
# overhead ceiling
# (instrumented asks within 5% of uninstrumented, full mode; the >= 4
# span-component floor is enforced in every mode). A11 drives governed asks
# with an open-loop multi-tenant workload at 0.5x and 2x admission capacity
# and enforces its own floors in every mode: baseline sheds <= 20%, overload
# sheds some-but-not-everything, degraded answers are marked and
# freshness-valid, and no goroutines leak. A12 drives the same open-loop
# workload over real HTTP against the live blueprintd handler and checks
# the flight recorder explains the overload: exemplars carry events and
# deep span trees, the scraped per-tenant SLO burn exceeds 1 under overload
# and the baseline, rings stay bounded, and the event log + recorder cost
# <= 5% on a governed ask (full mode). Each table is also written as
# machine-readable bench/BENCH_<ID>.json (archived by CI). CI runs this on
# every push so regressions surface immediately.
bench-smoke:
	$(GO) run ./cmd/benchharness -fig A5 -short -json bench
	$(GO) run ./cmd/benchharness -fig A6 -short -json bench
	$(GO) run ./cmd/benchharness -fig A8 -short -json bench
	$(GO) run ./cmd/benchharness -fig A9 -short -json bench
	$(GO) run ./cmd/benchharness -fig A10 -short -json bench
	$(GO) run ./cmd/benchharness -fig A11 -short -json bench
	$(GO) run ./cmd/benchharness -fig A12 -short -json bench

# Chaos suite: every Chaos* test activates the deterministic fault injector
# (injected errors, latency, hangs or crashes at the agent, relational and
# durability sites) and asserts the system degrades instead of wedging —
# retries absorb transient faults, breakers isolate persistent ones, asks
# still answer or fail cleanly. Run under the race detector: fault paths are
# where concurrency bugs hide.
chaos:
	$(GO) test -race -run Chaos ./...

# Go line counts, non-test and test, excluding perfbench/ (its own module)
# and hidden directories: the figures CHANGES.md reports.
loc:
	@printf 'non-test %s\n' "$$(find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@printf 'test     %s\n' "$$(find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*_test.go' -print0 | xargs -0 cat | wc -l)"

ci: fmt-check vet build race chaos bench-1x bench-smoke
