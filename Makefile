# CI entry points. `make ci` is what a pipeline should run; the
# individual targets exist for local iteration.

GO ?= go

.PHONY: ci fmt vet lint names inlines build test allocs race bench bench-smoke perfbench-test perfbench-smoke benchjson soak tenantsoak leaksoak benchgate heapdump-smoke fuzz-smoke

ci: fmt vet lint build test perfbench-test benchgate race

# gofmt is a gate, not a fixer: fail listing the offending files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Both tools are optional locally (the CI
# workflow installs them); skip with a note when absent so `make ci`
# stays runnable on a bare toolchain. The name check needs neither.
lint: names inlines
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; fi

# Test, fuzz, benchmark and table-row names must not name a mechanism
# that is gone (detached or parallel marking, adaptive workers, the
# background sweeper, the line heap) unless tools/namecheck.sh's
# allowlist says why, and every alternative of CONC_BATTERIES must still
# name a test.
names:
	@CONC_BATTERIES='$(CONC_BATTERIES)' bash tools/namecheck.sh

# The hot paths' small callees must stay inlined: the mark loop's
# small-block rule (smallSlot) and mark-bit step (setMark), a region's
# plain store (barrierFree, TryStore), a frame's slot access and the
# size-class lookup of both allocation fast paths. Each costs close to
# the inliner's budget, and no test fails when one stops inlining.
inlines:
	@bash tools/inlinecheck.sh

build:
	$(GO) build ./...

test: allocs
	$(GO) test ./...

# The allocation guards alone, three times over: every test that pins a
# path at zero Go-heap allocations (testing.AllocsPerRun == 0) carries
# ZeroAlloc in its name — the direct and handle allocation paths with a
# machine attached, the refill carve into a buffer with room and its
# return (TestAllocRunZeroAlloc), spans off a fresh block given back
# pushed or rewinding their source (TestFreshSpanReturnZeroAlloc), a
# budgeted tenant handle's
# paid fast path, refill, trimmed carve and flush
# (TestTenantAllocateZeroAlloc), frames and the residue step, untraced
# collections, the trace and metrics fast paths — so an escape that
# comes back fails here by name, before the full suite runs.
allocs:
	$(GO) test -count=3 -run ZeroAlloc ./internal/...

# The collector starts no goroutine, but mutator goroutines run beside
# one another — storing under their own handles' locks, and marking,
# sweeping and landing concurrent cycles in their allocations' assists
# and demand refills under the world lock — and all of it must be clean
# under the race detector. The internal packages hold most of its tests
# (differentials, fuzz seeds); the root package adds the bench drivers
# and trace plumbing. The concurrent cycle's soundness batteries — the
# lost-object battery (its forced-finale table is every entry point
# that lands a cycle in flight), the differentials, the mutator and
# watch batteries and the soak, every close of which the closure oracle
# checks for "marked ⊇ reachable"; the table test of the one close
# every cycle kind shares; the finalization accessors polled against
# finales another goroutine's allocations land; the pacer's tests;
# the sweep differentials; and the allocation path's lock waits, one
# goroutine polling for a lock another holds (TestLockAwake); the
# root-source accessors read against their setters
# (TestRootSourceAccessorsRace); and the region battery, whose
# World.Run region collects while another goroutine's handle allocates
# (TestRegionBattery) — then run
# again at one, two and four processors, because how the mutators'
# assists and waits interleave depends on how many there are; and the
# watch battery on the plain concurrent cycle, where the watcher's
# barrier-time walk meets other goroutines' assist chunks, runs twenty
# times over, as does the finalization accessors' test, whose second
# handle lands finales while the program polls between its allocations
# and stores.
# The root package alone takes about three and a quarter minutes
# (193 s) under -race on a quiet two-processor box, and a busy
# neighbour stretches it; go test's default ten-minute budget is
# widened so that a slow run with every test passing does not fail,
# and nothing is retried. -count=1 because a cached "ok" has
# looked for no race.
CONC_BATTERIES = LostObject|ConcurrentMark|MarkSummary|MutatorBattery|WatchBattery|SoakConcurrent|ProvenanceBarrier|SingleClose|FinalizableAccessors|Pacer|LazySweep|LockAwake|RootSourceAccessorsRace|RegionBattery
race:
	$(GO) test -count=1 -race -timeout 30m . ./internal/...
	@set -e; for p in 1 2 4; do \
		echo "race: concurrent batteries at GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 -race -run '$(CONC_BATTERIES)' ./internal/core; \
	done
	$(GO) test -count=20 -race -run 'TestWatchBattery/conc$$' ./internal/core
	$(GO) test -count=20 -race -run TestFinalizableAccessorsRace ./internal/core

bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

# One-iteration pass over every benchmark in the repo: catches bit-rot
# in benchmark code without waiting for real measurements (among them
# the rungs read without the perfbench harness: BenchmarkProgramTDirect
# and its per-call sibling BenchmarkProgramTLockPair,
# BenchmarkMutatorAllocateChurn, its budgeted-tenant twin
# BenchmarkTenantAllocateChurn, serve_tenants' two-goroutine shape
# BenchmarkTenantAllocateTwoWorkers and BenchmarkMutatorStore/{one,two}
# in the root package,
# the refill rung BenchmarkHoleRefill/{fresh,swept,fragmented} in
# internal/alloc,
# BenchmarkMarkLiveGraph and its halves2 and chain variants in
# internal/mark).
bench-smoke: perfbench-smoke
	$(GO) test -run XXX -bench . -benchtime 1x ./...
	$(GO) run ./cmd/gcbench -experiment servebench -tenants 32 -requests 6 > /dev/null
	$(GO) run ./cmd/gcbench -experiment leakbench > /dev/null

# cmd/perfbench — the benchmark BENCHMARK.json declares, and the only
# source for performance claims — is a module of its own, so `./...`
# skips it. perfbench-test runs its unit tests; perfbench-smoke builds
# it as run.sh does and runs four workloads at a tenth of the tape,
# failing on a non-zero exit (an output check that did not hold):
# live_graph_stw drives the mark loop from a stop-the-world pause,
# live_graph_conc from the concurrent cycle's allocation assists and
# the finale they land, with the barrier and the lazy sweep,
# serve_tenants is the one workload where two handles store
# concurrently, each under its own lock, and program_t is the one that
# builds platform environments (platform.Build and its shared static
# images) and runs program T in a World.Run region. None measures
# anything: see cmd/perfbench/README.md for that.
perfbench-test:
	$(GO) test -C cmd/perfbench .

perfbench-smoke:
	bash cmd/perfbench/run.sh -workload live_graph_stw -seconds 1 > /dev/null
	bash cmd/perfbench/run.sh -workload live_graph_conc -seconds 1 > /dev/null
	bash cmd/perfbench/run.sh -workload serve_tenants -seconds 1 > /dev/null
	bash cmd/perfbench/run.sh -workload program_t -seconds 1 > /dev/null

# Regenerates BENCH.json: one section per experiment of the registry —
# the paper's E1–E17 (table1, figure1, stackclear, grids, structures,
# overhead, largeobj, pcrsweep, frag, dualrun, genceiling, placement,
# atomic, typed, pauses, obs5), then servebench, retention and
# leakbench — each holding the options it ran
# with and its rows' key and exact columns: counts, retained fractions
# and capacities that repeat on any machine at any GOMAXPROCS, so the
# diff of a regeneration is empty unless behaviour changed. Timing and
# interleaving-dependent columns are printed and not recorded
# (cmd/perfbench measures time). -seeds 1 records table1 and pcrsweep
# at one seed per cell, so the gate reruns them in seconds; gcbench's
# default sweeps three.
benchjson:
	$(GO) run ./cmd/gcbench -experiment all -seeds 1 -benchjson BENCH.json > /dev/null

# Multi-mutator soak: many allocation/collection rounds against one
# generational + lazy-sweep world, with a full allocator integrity
# audit after every round. Not part of `make ci`; run it when touching
# the safepoint protocol or the allocation caches.
soak:
	$(GO) run ./cmd/gcbench -experiment soak -mutators 8 -soak-cycles 100

# Multi-tenant soak: wall-clock-bounded rounds of concurrent tenant
# sessions (collect-first churn plus one eviction per round) with a
# heap integrity audit and an exact attribution check for every tenant
# after every round. Not part of `make ci`; the blocking CI job runs it
# for twenty seconds and the nightly workflow for five minutes.
TENANT_SOAK_SECONDS ?= 60
tenantsoak:
	$(GO) run ./cmd/gcbench -experiment tenantsoak -tenants 64 -soak-seconds $(TENANT_SOAK_SECONDS)

# Leak-watch soak: wall-clock-bounded rounds of concurrent churn
# against a concurrent-marking world with the retention watcher live
# and a planted leak growing; fails on zero leak alerts or any
# false-positive alert. Not part of `make ci`; the nightly workflow
# runs it for five minutes.
LEAK_SOAK_SECONDS ?= 60
leaksoak:
	$(GO) run ./cmd/gcbench -experiment leaksoak -mutators 4 -soak-seconds $(LEAK_SOAK_SECONDS)

# Benchmark regression gate: rerun every section of BENCH.json
# in-process, from the options the section records, and compare the
# exact columns (the paper's retained fractions, apparently-live cells,
# blacklisted pages and large-object capacities; objects marked,
# objects/bytes freed, admissions and denials, attribution and detection
# counts) for equality. No timing is compared and nothing is tolerated:
# these are invariants.
benchgate:
	$(GO) run ./cmd/benchgate -baseline BENCH.json > /dev/null

# Self-checking retention demo: plant a false stack reference retaining
# a lazy stream (paper, section 4) and assert that the retention report
# censors the declared slot, attributes the chain as spurious, and that
# the sole-retention ranking names the same slot unprompted.
heapdump-smoke:
	$(GO) run ./cmd/heapdump -plantfalse

# Short fuzzing pass over every fuzz target. Each -fuzz pattern must
# match exactly one target per package, hence one invocation apiece.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run XXX -fuzz '^FuzzAllocatorOps$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzConcurrentMark$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzMarkCandidate$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzOwnerTable$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzZeroDeadRuns$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzScanCandidates$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run XXX -fuzz '^FuzzSegmentAccess$$' -fuzztime $(FUZZTIME) ./internal/mem
	$(GO) test -run XXX -fuzz '^FuzzMarkValue$$' -fuzztime $(FUZZTIME) ./internal/mark
	$(GO) test -run XXX -fuzz '^FuzzMarkWords$$' -fuzztime $(FUZZTIME) ./internal/mark
	$(GO) test -run XXX -fuzz '^FuzzConcurrentAlloc$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run XXX -fuzz '^FuzzConcurrentMark$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run XXX -fuzz '^FuzzTenantBudget$$' -fuzztime $(FUZZTIME) ./internal/core
