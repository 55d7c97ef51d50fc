// Command gcbench regenerates every table and figure from "Space
// Efficient Conservative Garbage Collection" (Boehm, PLDI 1993) on the
// simulated-machine reproduction.
//
// Usage:
//
//	gcbench -experiment all
//	gcbench -experiment table1 -seeds 5 -parallel 8
//	gcbench -experiment stackclear
//	gcbench -experiment servebench -cpuprofile cpu.prof   (then: go tool pprof -top cpu.prof)
//
// Experiments (see DESIGN.md for the paper mapping):
//
//	table1      E1: program T retention with/without blacklisting
//	figure1     E2: small-integer concatenation misidentification
//	stackclear  E5: apparently-live cells vs stack hygiene
//	grids       E4: embedded vs separate links (figures 3/4)
//	structures  E6: trees, queues, lazy streams
//	overhead    E7: blacklisting cost, allocation latency (footnote 3)
//	largeobj    E8: large objects vs the blacklist (observation 7)
//	pcrsweep    E9: PCR retention vs Cedar world size (appendix B)
//	frag        E10: address-ordered vs LIFO free blocks (conclusions)
//	dualrun     E11: dual-run offset certification (footnote 4)
//	genceiling  E12: stray stack pointers vs generational collection (§3.1)
//	placement   E13: heap placement in the address space (§2)
//	atomic      E14: pointer-free allocation for compressed data (§2)
//	typed       E15: conservative vs exact heap layouts (introduction)
//	pauses      E16: stop-the-world vs mostly-concurrent vs generational pauses
//	obs5        E17: residual references die under continued execution
//	markbench   parallel mark-phase scaling by worker count
//	sweepbench  collection pauses, eager vs lazy sweeping (plus markbench)
//	mutbench    concurrent-mutator allocation throughput by mutator count
//	allocbench  free-list vs line-heap allocation profiles by mutator count
//	pausebench  stop-the-world vs mostly-concurrent marking pause percentiles
//	servebench  multi-tenant serving: per-tenant budgets under three policies
//	soak        long multi-mutator churn with per-cycle integrity audits
//	tenantsoak  wall-clock-bounded multi-tenant churn with per-round audits
//	retention   spurious-retention attribution on the section-4 lazy stream
//	leakbench   online leak watcher: planted slow leak vs churn control
//	leaksoak    wall-clock-bounded watcher soak on a concurrent-marking world
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/stats"
)

var (
	experiment = flag.String("experiment", "all", "experiment to run (table1|figure1|stackclear|grids|structures|overhead|largeobj|pcrsweep|frag|dualrun|genceiling|placement|atomic|typed|pauses|obs5|markbench|sweepbench|mutbench|allocbench|pausebench|servebench|soak|tenantsoak|retention|leakbench|leaksoak|all)")
	seeds      = flag.Int("seeds", 3, "seeds per table-1 and pcrsweep cell")
	parallel   = flag.Int("parallel", 8, "concurrent runs for table-1 style sweeps")
	seed       = flag.Uint64("seed", 1, "base seed for single-run experiments")
	format     = flag.String("format", "text", "table output format: text|markdown")
	benchJSON  = flag.String("benchjson", "", "write markbench/sweepbench results as JSON to this file")
	workers    = flag.String("workers", "", "comma-separated markbench worker counts (default: powers of two up to GOMAXPROCS)")
	mutators   = flag.String("mutators", "", "comma-separated mutbench mutator counts, or the soak mutator count (default: powers of two up to GOMAXPROCS; soak: 8)")
	soakCycles = flag.Int("soak-cycles", 20, "soak rounds (each ends in a collection and an integrity audit)")
	tenants    = flag.Int("tenants", 0, "servebench/tenantsoak tenant count (servebench default: 1000; tenantsoak: 64)")
	requests   = flag.Int("requests", 0, "servebench collect-first requests per session (default: 12)")
	soakSecs   = flag.Int("soak-seconds", 60, "tenantsoak wall-clock budget in seconds")
	traceOut   = flag.String("trace", "", "write a JSON event trace of markbench/sweepbench collections to this file")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (read it with go tool pprof)")
)

// benchTracer returns the shared trace recorder for the bench
// experiments, creating it on first use when -trace is set.
var benchTracer *repro.TraceRecorder

func getBenchTracer() *repro.TraceRecorder {
	if *traceOut != "" && benchTracer == nil {
		benchTracer = repro.NewTraceRecorder(0)
	}
	return benchTracer
}

// writeTrace flushes the recorder to the -trace file, if both exist.
func writeTrace() error {
	if *traceOut == "" || benchTracer == nil {
		return nil
	}
	f, err := os.Create(*traceOut)
	if err != nil {
		return err
	}
	if err := benchTracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d events, %d dropped)\n",
		*traceOut, min(benchTracer.Emitted(), uint64(benchTracer.Capacity())), benchTracer.Dropped())
	return nil
}

// printTable renders a result table in the selected format.
func printTable(tab *stats.Table) {
	if *format == "markdown" {
		fmt.Println(tab.Markdown())
		return
	}
	fmt.Println(tab)
}

func main() {
	flag.Parse()
	runners := map[string]func() error{
		"table1":     runTable1,
		"genceiling": runGenCeiling,
		"placement":  runPlacement,
		"typed":      runTyped,
		"pauses":     runPauses,
		"obs5":       runObs5,
		"atomic":     runAtomic,
		"figure1":    runFigure1,
		"stackclear": runStackClear,
		"grids":      runGrids,
		"structures": runStructures,
		"overhead":   runOverhead,
		"largeobj":   runLargeObj,
		"pcrsweep":   runPCRSweep,
		"frag":       runFrag,
		"dualrun":    runDualRun,
		"markbench":  runMarkBench,
		"sweepbench": runSweepBench,
		"mutbench":   runMutBench,
		"allocbench": runAllocBench,
		"pausebench": runPauseBench,
		"servebench": runServeBench,
		"soak":       runSoak,
		"tenantsoak": runTenantSoak,
		"retention":  runRetention,
		"leakbench":  runLeakBench,
		"leaksoak":   runLeakSoak,
	}
	order := []string{
		"table1", "figure1", "stackclear", "grids", "structures",
		"overhead", "largeobj", "pcrsweep", "frag", "dualrun", "genceiling",
		"placement", "atomic", "typed", "pauses", "obs5", "markbench",
		"sweepbench", "mutbench", "allocbench", "pausebench", "servebench",
		"retention", "leakbench",
	}
	var todo []string
	if *experiment == "all" {
		todo = order
	} else if _, ok := runners[*experiment]; ok {
		todo = []string{*experiment}
	} else {
		fmt.Fprintf(os.Stderr, "gcbench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "gcbench: -cpuprofile: %v\n", err)
			}
		}
	}
	for _, name := range todo {
		start := time.Now()
		if err := runners[name](); err != nil {
			stopProfile()
			fmt.Fprintf(os.Stderr, "gcbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	stopProfile()
}

func runTable1() error {
	fmt.Println("Running table 1: 9 configurations x 2 blacklist modes x",
		*seeds, "seeds (full program T each)...")
	_, tab, err := repro.Table1(repro.Table1Options{Seeds: *seeds, Parallel: *parallel})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println(`Paper (table 1):
  SPARC(static)   79-79.5% / 78-78.5%   -> 0-.5% / .5-1%
  SPARC(dynamic)  8-9.5%   / 9-11.5%    -> .5% / 0-.5%
  SGI(static)     1.5-8%   / 1-4%       -> 0% / 0%
  OS/2(static)    28%      / 26%        -> 3% / 1%
  PCR             44.5-55%              -> 1.5-3.5%`)
	return nil
}

func runFigure1() error {
	_, tab, err := repro.Figure1(repro.Figure1Options{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (figure 1): two small integers concatenate to the address 0x00090000;")
	fmt.Println("word-aligned scanning is immune, unaligned scanning is not, and avoiding")
	fmt.Println("allocation at trailing-zero-rich addresses restores immunity.")
	return nil
}

func runStackClear() error {
	_, tab, err := repro.StackClearing(repro.StackClearOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (section 3.1): 40,000-100,000 max apparently-live cells without")
	fmt.Println("clearing; never above 18,000 with cheap clearing; ~2000 optimized.")
	return nil
}

func runGrids() error {
	_, tab, err := repro.Grids(repro.GridsOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (figures 3/4): embedded links retain a large fraction of the grid;")
	fmt.Println("separate cons cells retain at most a single row or column.")
	return nil
}

func runStructures() error {
	_, trees, err := repro.Trees(nil, 0, *seed)
	if err != nil {
		return err
	}
	printTable(trees)
	_, queues, err := repro.QueuesAndStreams(0, 0, *seed)
	if err != nil {
		return err
	}
	printTable(queues)
	fmt.Println("Paper (section 4): tree retention ~ height; queues and lazy lists grow")
	fmt.Println("without bound under one false reference unless links are cleared on removal.")
	return nil
}

func runOverhead() error {
	_, tab, err := repro.Overhead(*seed)
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (footnote 3): blacklisting bookkeeping ~0.2% of collector time,")
	fmt.Println("total overhead usually below 1%; 8-byte alloc+collect ~2us on a SPARC 2.")
	return nil
}

func runLargeObj() error {
	_, tab, err := repro.LargeObjects(repro.LargeObjectsOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (observation 7): with all interior pointers valid it becomes hard to")
	fmt.Println("allocate objects over ~100 KB; base-pointer-only validity has no trouble.")
	return nil
}

func runPCRSweep() error {
	_, tab, err := repro.PCRSweep(nil, *seeds, *parallel)
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (appendix B): 1.5-13 MB of other live data had minimal effect on the")
	fmt.Println("amount of retained storage.")
	return nil
}

func runFrag() error {
	_, tab, err := repro.Fragmentation(repro.FragmentationOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (conclusions): address-sorted free lists make large adjacent chunks")
	fmt.Println("more likely to reform, decreasing fragmentation.")
	return nil
}

func runDualRun() error {
	_, tab, err := repro.DualRun(repro.DualRunOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (footnote 4): two copies of the program with heap bases differing by n;")
	fmt.Println("corresponding values not differing by n are provably non-pointers.")
	return nil
}

func runGenCeiling() error {
	_, tab, err := repro.GenerationalCeiling(repro.GenerationalOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (section 3.1, end): stray stack pointers lengthen object lifetimes,")
	fmt.Println("\"placing a ceiling on the effectiveness of generational collection\".")
	return nil
}

func runPlacement() error {
	_, tab, err := repro.HeapPlacement(repro.HeapPlacementOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (section 2): position the heap where the high-order address bits are")
	fmt.Println("neither all zeros nor all ones, away from character codes and float values.")
	return nil
}

func runAtomic() error {
	_, tab, err := repro.AtomicData(repro.AtomicDataOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (section 2): large pointer-free data (compressed bitmaps) must be")
	fmt.Println("allocated as such, or its contents introduce false pointers wholesale.")
	return nil
}

func runTyped() error {
	_, tab, err := repro.DegreesOfConservatism(repro.ConservatismOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (introduction): implementations vary in their degree of conservativism;")
	fmt.Println("exact heap layouts eliminate misidentification from non-pointer fields.")
	return nil
}

func runPauses() error {
	_, tab, err := repro.Pauses(repro.PausesOptions{Seed: *seed})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (introduction): \"concurrent collectors that greatly reduce client")
	fmt.Println("pause times\" [8] and generational conservative collectors [13] both exist;")
	fmt.Println("this reproduces their pause profiles on the same substrate.")
	return nil
}

// parseCounts turns a comma-separated count flag into a list.
func parseCounts(flagName, val string) ([]int, error) {
	if val == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(val, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("gcbench: bad %s entry %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseWorkers turns the -workers flag into a worker-count list.
func parseWorkers() ([]int, error) { return parseCounts("-workers", *workers) }

// parseMutators turns the -mutators flag into a mutator-count list.
func parseMutators() ([]int, error) { return parseCounts("-mutators", *mutators) }

func runMarkBench() error {
	counts, err := parseWorkers()
	if err != nil {
		return err
	}
	res, tab, err := repro.MarkBench(repro.MarkBenchOptions{Workers: counts, Trace: getBenchTracer()})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Parallel marking is not in the paper; it shards the figure-2 mark phase")
	fmt.Println("with CAS mark bits and work stealing, marking the identical object set.")
	fmt.Println("Speedups require real cores: worker counts above GOMAXPROCS serialise,")
	fmt.Println("so those rows are flagged oversubscribed and measure overhead only.")
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

func runSweepBench() error {
	res, tab, err := repro.SweepBench(repro.SweepBenchOptions{Trace: getBenchTracer()})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Lazy sweeping replaces the pause's per-slot heap walk with an O(blocks)")
	fmt.Println("mark-summary scan; the per-slot work is paid during allocation instead.")
	fmt.Println("Reclamation totals are identical by construction (checked above). Unlike")
	fmt.Println("mark speedups, this needs no extra cores, so GOMAXPROCS=1 is honest here.")
	mark, mtab, err := repro.MarkBench(repro.MarkBenchOptions{Trace: getBenchTracer()})
	if err != nil {
		return err
	}
	res.Mark = mark
	printTable(mtab)
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

func runMutBench() error {
	counts, err := parseMutators()
	if err != nil {
		return err
	}
	res, tab, err := repro.MutBench(repro.MutBenchOptions{Mutators: counts, Trace: getBenchTracer()})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Concurrent mutators are not in the paper's measurements, but its collector")
	fmt.Println("serves multi-threaded PCR programs; this measures the per-mutator allocation")
	fmt.Println("caches and the stop-the-world safepoint protocol under allocation churn.")
	fmt.Println("The object count per row is deterministic and gated by cmd/benchgate;")
	fmt.Println("collection counts depend on goroutine interleaving and are informational.")
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

func runAllocBench() error {
	counts, err := parseMutators()
	if err != nil {
		return err
	}
	res, tab, err := repro.AllocBench(repro.AllocBenchOptions{Mutators: counts, Trace: getBenchTracer()})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("The line heap replaces per-slot free-list threading with bump spans carved")
	fmt.Println("over runs of free 256-byte lines; sweeping reclaims at line granularity and")
	fmt.Println("the waste column is the space stranded in partly-live lines. Object counts")
	fmt.Println("per row are deterministic in both profiles and gated by cmd/benchgate.")
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

func runPauseBench() error {
	counts, err := parseMutators()
	if err != nil {
		return err
	}
	opts := repro.PauseBenchOptions{Trace: getBenchTracer()}
	if len(counts) > 0 {
		opts.Mutators = counts[0]
	}
	res, tab, err := repro.PauseBench(opts)
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Both rows replay the same deterministic no-free workload: the live graph")
	fmt.Println("grows all run, so stop-the-world pauses grow with it while concurrent")
	fmt.Println("cycles pause only for the root snapshot and the root-rescan finale.")
	fmt.Println("Object and live counts are exact and gated by cmd/benchgate;")
	fmt.Printf("pause percentiles are advisory timing (p99 reduction here: %.1fx).\n", res.P99ReductionX)
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

func runServeBench() error {
	res, tab, err := repro.ServeBench(repro.ServeBenchOptions{
		Tenants: *tenants, Requests: *requests, Trace: getBenchTracer(),
	})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Each policy row replays one deterministic session tape per tenant against a")
	fmt.Println("fixed budget, so admissions, denials, evictions, reclamation and liveness")
	fmt.Println("are exact and gated by cmd/benchgate; a zero fairness spread means budget")
	fmt.Println("enforcement never leaked between tenants. Latency and pause percentiles")
	fmt.Println("are timing and stay advisory.")
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

// runTenantSoak churns -tenants collect-first tenants (plus one fresh
// evict tenant per round) against one concurrent-marking world until
// the -soak-seconds wall-clock budget runs out. Every round ends in a
// settling collection, a full allocator integrity audit, and an exact
// attribution check for every tenant ever created, so budget-counter
// drift or a slot freed out from under its owner fails the soak even
// when the heap itself stays consistent.
func runTenantSoak() error {
	nTen := *tenants
	if nTen == 0 {
		nTen = 64
	}
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
		GCDivisor: 16, ConcurrentMark: true, MarkQuantum: 4096,
		ConcMarkWorkers: 4, ConcurrentSweep: true,
	})
	if err != nil {
		return err
	}
	w.SetTracer(getBenchTracer())
	const slots = 12
	// One root region per persistent tenant, plus a final region the
	// round's evict tenant uses and a maintenance mutator clears after
	// the eviction (so its dangling roots cannot pin later rounds).
	data, err := w.Space.MapNew("roots", repro.KindData, 0x2000,
		(nTen+1)*slots*4, (nTen+1)*slots*4)
	if err != nil {
		return err
	}
	maint := w.NewMutator()
	evictBase := repro.Addr(0x2000 + nTen*slots*4)
	tens := make([]*repro.Tenant, nTen)
	muts := make([]*repro.Mutator, nTen)
	for i := range tens {
		tens[i] = w.NewTenant(repro.TenantConfig{
			Name:        fmt.Sprintf("t%d", i),
			BudgetBytes: 16 * 32, // sixteen 8-word objects
			Policy:      repro.TenantCollectFirst,
		})
		muts[i] = tens[i].NewMutator()
	}
	fmt.Printf("Tenant soak: %d collect-first tenants + 1 evict tenant/round for %ds...\n",
		nTen, *soakSecs)
	deadline := time.Now().Add(time.Duration(*soakSecs) * time.Second)
	round := 0
	for time.Now().Before(deadline) {
		round++
		// One fresh evict tenant per round: an 8-object budget against a
		// 24-attempt leak tape, so it is always evicted mid-session.
		evt := w.NewTenant(repro.TenantConfig{
			Name:        fmt.Sprintf("evict-r%d", round),
			BudgetBytes: 8 * 32,
			Policy:      repro.TenantEvict,
		})
		evm := evt.NewMutator()
		var wg sync.WaitGroup
		errs := make([]error, nTen+1)
		for i := 0; i < nTen; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = repro.RunServeSession(muts[i], data, repro.Addr(0x2000+i*slots*4),
					repro.ServeSessionParams{
						Kind: repro.ServeScheme, Requests: 6, AllocsPerRequest: 4,
						ObjWords: 8, Slots: slots,
						Seed: uint64(round)*0x9e3779b97f4a7c15 + uint64(i) + 1,
					})
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := repro.RunServeSession(evm, data, evictBase,
				repro.ServeSessionParams{
					Kind: repro.ServeLeak, Requests: 6, AllocsPerRequest: 4,
					ObjWords: 8, Slots: slots, Seed: uint64(round) + 1,
				})
			if err == nil && !res.Evicted {
				err = fmt.Errorf("evict tenant finished un-evicted (allocated %d)", res.Allocated)
			}
			errs[nTen] = err
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("tenant soak round %d, session %d: %w", round, i, err)
			}
		}
		// Clear the evicted tenant's stale roots from a bare mutator (its
		// own handle is cancelled).
		for j := 0; j < slots; j++ {
			if err := maint.Store(evictBase+repro.Addr(4*j), 0); err != nil {
				return err
			}
		}
		// Settle and audit: heap integrity, eviction exactness, and
		// per-tenant attribution for every tenant ever created.
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			return fmt.Errorf("tenant soak round %d: %w", round, err)
		}
		if st := evt.Stats(); !st.Evicted || st.LiveBytes != 0 {
			return fmt.Errorf("tenant soak round %d: evict tenant live=%d evicted=%v",
				round, st.LiveBytes, st.Evicted)
		}
		var total uint64
		for _, t := range w.Tenants() {
			st := t.Stats()
			if owned := t.OwnedBytes(); st.LiveBytes != owned {
				return fmt.Errorf("tenant soak round %d: tenant %s live %d bytes vs %d owned",
					round, t.Name(), st.LiveBytes, owned)
			}
			total += st.AllocatedObjects
		}
		if got := w.Heap.Stats().ObjectsAllocated; got != total {
			return fmt.Errorf("tenant soak round %d: central ObjectsAllocated %d, tenants allocated %d",
				round, got, total)
		}
		if round%25 == 0 {
			hs := w.Heap.Stats()
			fmt.Printf("  round %d: %d objs allocated, %d live, %d collections\n",
				round, hs.ObjectsAllocated, hs.ObjectsLive, w.Collections())
		}
	}
	hs := w.Heap.Stats()
	fmt.Printf("Survived %d rounds: %d objects allocated, %d live, %d collections,\n",
		round, hs.ObjectsAllocated, hs.ObjectsLive, w.Collections())
	fmt.Println("every round audited for heap integrity, eviction exactness and per-tenant")
	fmt.Println("attribution (LiveBytes == owned bytes for every tenant ever created).")
	return writeTrace()
}

// runSoak churns -mutators goroutines against one generational +
// lazy-sweep world for -soak-cycles rounds. Every round ends in a
// collection (minor, periodically full) and a full integrity audit, so
// a slot double-carved or leaked through the safepoint flush fails the
// run even if it would take many cycles to corrupt anything visible.
func runSoak() error {
	counts, err := parseMutators()
	if err != nil {
		return err
	}
	nMut := 8
	if len(counts) > 0 {
		nMut = counts[0]
	}
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
		Generational: true, MinorDivisor: 8, FullEvery: 4, LazySweep: true,
	})
	if err != nil {
		return err
	}
	w.SetTracer(getBenchTracer())
	const slots = 16
	data, err := w.Space.MapNew("roots", repro.KindData, 0x2000, nMut*slots*4, nMut*slots*4)
	if err != nil {
		return err
	}
	muts := make([]*repro.Mutator, nMut)
	for g := range muts {
		muts[g] = w.NewMutator()
	}
	const allocsPerRound = 4000
	sizes := []int{2, 3, 5, 8, 16, 32}
	fmt.Printf("Soaking %d mutators x %d rounds x %d allocs (generational + lazy sweep)...\n",
		nMut, *soakCycles, allocsPerRound)
	tab := stats.NewTable(
		fmt.Sprintf("Soak: %d mutators, %d allocs/round", nMut, allocsPerRound),
		"round", "kind", "live objs", "heap KB", "flushed slots", "stop us")
	var lastFlushed uint64
	for round := 0; round < *soakCycles; round++ {
		var wg sync.WaitGroup
		errs := make([]error, nMut)
		for g := 0; g < nMut; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m := muts[g]
				base := repro.Addr(0x2000 + g*slots*4)
				for i := 0; i < allocsPerRound; i++ {
					size := sizes[(i+round)%len(sizes)]
					if i%8 == 0 {
						slot := repro.Addr(4 * ((i >> 3) % slots))
						p, err := m.AllocateRooted(data, base+slot, size, false)
						if err != nil {
							errs[g] = err
							return
						}
						// Occasionally free the object we just rooted: the
						// root still holds it, so it is provably ours.
						if i%64 == 0 {
							if err := m.Free(p); err != nil {
								errs[g] = err
								return
							}
							if err := m.Store(base+slot, 0); err != nil {
								errs[g] = err
								return
							}
						}
					} else if _, err := m.Allocate(size, i%16 == 1); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				return fmt.Errorf("soak round %d, mutator %d: %w", round, g, err)
			}
		}
		var st repro.CollectionStats
		kind := "minor"
		if (round+1)%4 == 0 {
			st = w.Collect()
			kind = "full"
		} else {
			st = w.CollectMinor()
		}
		if err := w.VerifyIntegrity(); err != nil {
			return fmt.Errorf("soak round %d: %w", round, err)
		}
		var flushed uint64
		for _, m := range muts {
			flushed += m.Stats().FlushedSlots
		}
		tab.AddF(round+1, kind,
			st.Sweep.ObjectsLive,
			st.HeapBytes/1024,
			flushed-lastFlushed,
			fmt.Sprintf("%.1f", float64(st.PauseStopNs)/1e3))
		lastFlushed = flushed
	}
	// Conservation over the whole soak: every allocation every round is
	// visible centrally once the final safepoint published them.
	want := uint64(nMut * *soakCycles * allocsPerRound)
	if got := w.Heap.Stats().ObjectsAllocated; got != want {
		return fmt.Errorf("soak: central ObjectsAllocated = %d, mutators performed %d", got, want)
	}
	printTable(tab)
	fmt.Println("Every round survived a safepoint flush, a sticky-mark collection and a")
	fmt.Println("full allocator integrity audit (conservation: live + free + cached slots).")
	return writeTrace()
}

func runRetention() error {
	res, tab, err := repro.RetentionBench(repro.RetentionBenchOptions{Trace: getBenchTracer()})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println(res.GCTrace)
	fmt.Println("Paper (section 4): one stale stack word holding a lazy stream's first cell")
	fmt.Println("retains the whole memoised chain. The retention report re-marks a censored")
	fmt.Println("copy of the roots to attribute the chain as spurious, and the sole-retention")
	fmt.Println("ranking names the guilty slot without being told. Every count is")
	fmt.Println("deterministic and gated exactly by cmd/benchgate; only report ms is timing.")
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

func runLeakBench() error {
	res, tab, err := repro.LeakBench(repro.LeakBenchOptions{Trace: getBenchTracer()})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Online leak detection: the retention watcher samples every 2nd collection at")
	fmt.Println("the cycle barrier, diffs per-root-slot retention snapshots, and alerts on")
	fmt.Println("sustained windowed growth. The planted leak (one monotone list root among")
	fmt.Println("eight churning roots) must be flagged within a bounded cycle count with zero")
	fmt.Println("false positives; the churn-only control must stay silent. Both outcomes are")
	fmt.Println("exact and gated by cmd/benchgate; only elapsed ms is timing.")
	if *benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return writeTrace()
}

// runLeakSoak churns allocation against one concurrent-marking world
// with the retention watcher running until the -soak-seconds budget
// runs out: a planted list leaks from one root slot while -mutators
// goroutines churn rooted and unrooted objects. Every round ends in a
// settling collection and a full integrity audit; at the end the
// watcher must have flagged the planted slot and nothing else.
func runLeakSoak() error {
	counts, err := parseMutators()
	if err != nil {
		return err
	}
	nMut := 4
	if len(counts) > 0 {
		nMut = counts[0]
	}
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
		GCDivisor: 16, ConcurrentMark: true, MarkQuantum: 4096,
		ConcMarkWorkers: 4, ConcurrentSweep: true,
	})
	if err != nil {
		return err
	}
	w.SetTracer(getBenchTracer())
	const slots = 16
	data, err := w.Space.MapNew("roots", repro.KindData, 0x2000,
		(nMut*slots+1)*4, (nMut*slots+1)*4)
	if err != nil {
		return err
	}
	leakSlot := repro.Addr(0x2000 + nMut*slots*4)
	leakKey := repro.RootSlotID{
		Kind: repro.RootSegment, Src: 0, Index: int32(nMut * slots), Addr: leakSlot,
	}.String()
	alerts, err := w.StartRetentionWatch(repro.WatchConfig{
		SampleEvery: 1, Window: 8, MinGrowthBytes: 4096, Buffer: 4096,
	})
	if err != nil {
		return err
	}
	maint := w.NewMutator()
	muts := make([]*repro.Mutator, nMut)
	for g := range muts {
		muts[g] = w.NewMutator()
	}
	fmt.Printf("Leak soak: %d churn mutators + 1 planted leak, watcher on every cycle, %ds...\n",
		nMut, *soakSecs)
	deadline := time.Now().Add(time.Duration(*soakSecs) * time.Second)
	var leakAlerts, falsePos int
	var firstLeak string
	drain := func() {
		for {
			select {
			case a, ok := <-alerts:
				if !ok {
					return
				}
				if a.Key == leakKey {
					leakAlerts++
					if firstLeak == "" {
						firstLeak = repro.LeakAlertText(a)
					}
				} else {
					falsePos++
					fmt.Printf("  false positive: %s\n", repro.LeakAlertText(a))
				}
			default:
				return
			}
		}
	}
	round := 0
	const allocsPerRound = 2000
	sizes := []int{2, 3, 5, 8, 16}
	for time.Now().Before(deadline) {
		round++
		// The leak: 1024 cells (8 KiB) prepended to the planted list.
		for i := 0; i < 1024; i++ {
			prev, err := maint.Load(leakSlot)
			if err != nil {
				return err
			}
			cell, err := maint.AllocateRooted(data, leakSlot, 2, false)
			if err != nil {
				return err
			}
			if err := maint.Store(cell+4, prev); err != nil {
				return err
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, nMut)
		for g := 0; g < nMut; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m := muts[g]
				base := repro.Addr(0x2000 + g*slots*4)
				for i := 0; i < allocsPerRound; i++ {
					size := sizes[(i+round)%len(sizes)]
					if i%8 == 0 {
						slot := repro.Addr(4 * ((i >> 3) % slots))
						if _, err := m.AllocateRooted(data, base+slot, size, false); err != nil {
							errs[g] = err
							return
						}
					} else if _, err := m.Allocate(size, i%16 == 1); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				return fmt.Errorf("leak soak round %d, mutator %d: %w", round, g, err)
			}
		}
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			return fmt.Errorf("leak soak round %d: %w", round, err)
		}
		drain()
		if round%25 == 0 {
			hs := w.Heap.Stats()
			fmt.Printf("  round %d: %d objs live, %d collections, %d leak alerts\n",
				round, hs.ObjectsLive, w.Collections(), leakAlerts)
		}
	}
	trends := w.StopRetentionWatch()
	drain()
	if leakAlerts == 0 {
		return fmt.Errorf("leak soak: planted leak never alerted in %d rounds (%d trend keys)",
			round, len(trends))
	}
	if falsePos > 0 {
		return fmt.Errorf("leak soak: %d false-positive alerts", falsePos)
	}
	fmt.Printf("Survived %d rounds: %d leak alerts on the planted slot, 0 false positives.\n",
		round, leakAlerts)
	fmt.Printf("first alert: %s\n", firstLeak)
	fmt.Println(w.GCTraceSummary())
	return writeTrace()
}

func runObs5() error {
	_, tab, err := repro.Observation5(repro.Observation5Options{})
	if err != nil {
		return err
	}
	printTable(tab)
	fmt.Println("Paper (observation 5): references remaining even with blacklisting come from")
	fmt.Println("stack/register residue and are \"eventually overwritten in a longer running")
	fmt.Println("program with more varied stack frames\".")
	return nil
}
