// Command gcbench regenerates every table and figure from "Space
// Efficient Conservative Garbage Collection" (Boehm, PLDI 1993) on the
// simulated-machine reproduction, and runs this repository's own
// benchmark drivers and soaks.
//
// Usage:
//
//	gcbench -experiment all
//	gcbench -experiment table1 -seeds 5 -parallel 8
//	gcbench -experiment stackclear
//	gcbench -experiment servebench -cpuprofile cpu.prof   (then: go tool pprof -top cpu.prof)
//	gcbench -experiment all -benchjson BENCH.json         (one section per gated experiment that ran)
//
// The experiments are the registry repro.Experiments (E1–E17, see
// DESIGN.md for the paper mapping, then the gated benchmark drivers)
// plus the three soaks below; `gcbench -h` lists them all.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/stats"
)

// cli is one gcbench invocation: where it prints and what its flags
// selected.
type cli struct {
	out        io.Writer
	args       repro.RunArgs
	format     string
	soakCycles int
	soakSecs   int
	// sections collects what the gated experiments that ran leave for
	// -benchjson.
	sections map[string]*repro.Section
}

// soaks are the long-running audits: not part of "all", and they fail
// or pass rather than produce rows to gate.
var soaks = []struct {
	name, title string
	run         func(*cli) error
}{
	{"soak", "long multi-mutator churn with per-cycle integrity audits", (*cli).soak},
	{"tenantsoak", "wall-clock-bounded multi-tenant churn with per-round audits", (*cli).tenantSoak},
	{"leaksoak", "wall-clock-bounded watcher soak on a concurrent-marking world", (*cli).leakSoak},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experimentNames lists what -experiment accepts besides "all": the
// registry in its order, then the soaks; listing adds each one's title.
func experimentNames() (names, listing []string) {
	add := func(name, title string) {
		names = append(names, name)
		listing = append(listing, fmt.Sprintf("  %-11s %s", name, title))
	}
	for _, e := range repro.Experiments {
		add(e.Name, e.Title)
	}
	for _, s := range soaks {
		add(s.name, s.title)
	}
	return names, listing
}

// run is gcbench: it returns the exit status (0 ok, 1 an experiment
// failed, 2 usage).
func run(argv []string, stdout, stderr io.Writer) int {
	c := &cli{out: stdout, sections: make(map[string]*repro.Section)}
	names, listing := experimentNames()
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "experiment to run ("+strings.Join(names, "|")+"|all)")
	fs.IntVar(&c.args.Seeds, "seeds", 3, "seeds per table-1 and pcrsweep cell")
	fs.IntVar(&c.args.Parallel, "parallel", 8, "concurrent runs for table-1 style sweeps")
	fs.Uint64Var(&c.args.Seed, "seed", 1, "base seed for single-run experiments")
	fs.StringVar(&c.format, "format", "text", "table output format: text|markdown")
	benchJSON := fs.String("benchjson", "", "write the gated experiments' sections (options, key and exact columns) as JSON to this file")
	workers := fs.String("workers", "", "comma-separated markbench worker counts (default: powers of two up to GOMAXPROCS)")
	mutators := fs.String("mutators", "", "comma-separated mutbench mutator counts, or the soak mutator count (default: powers of two up to GOMAXPROCS; soak: 8)")
	fs.IntVar(&c.soakCycles, "soak-cycles", 20, "soak rounds (each ends in a collection and an integrity audit)")
	fs.IntVar(&c.args.Tenants, "tenants", 0, "servebench/tenantsoak tenant count (servebench default: 1000; tenantsoak: 64)")
	fs.IntVar(&c.args.Requests, "requests", 0, "servebench collect-first requests per session (default: 12)")
	fs.IntVar(&c.soakSecs, "soak-seconds", 60, "tenantsoak/leaksoak wall-clock budget in seconds")
	traceOut := fs.String("trace", "", "write a JSON event trace of the bench and soak worlds' collections to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (read it with go tool pprof)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage of gcbench:")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "Experiments:\n%s\n", strings.Join(listing, "\n"))
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "gcbench: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	if c.args.Workers, err = parseCounts("-workers", *workers); err != nil {
		return usage("%v", err)
	}
	if c.args.Mutators, err = parseCounts("-mutators", *mutators); err != nil {
		return usage("%v", err)
	}

	type job struct {
		name string
		run  func() error
	}
	var todo []job
	gated := false
	for _, e := range repro.Experiments {
		if *experiment == "all" || *experiment == e.Name {
			todo = append(todo, job{e.Name, func() error { return c.runExperiment(e) }})
			gated = gated || e.NewRows != nil
		}
	}
	for _, s := range soaks {
		if *experiment == s.name {
			todo = append(todo, job{s.name, func() error { return s.run(c) }})
		}
	}
	if len(todo) == 0 {
		return usage("unknown experiment %q", *experiment)
	}
	if *benchJSON != "" && !gated {
		return usage("-benchjson: %s has no gated rows to write", *experiment)
	}
	if *traceOut != "" {
		c.args.Trace = repro.NewTraceRecorder(0)
	}

	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "gcbench: %s: %v\n", what, err)
		return 1
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return fail("-cpuprofile", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail("-cpuprofile", err)
			}
		}()
	}
	for _, j := range todo {
		start := time.Now()
		if err := j.run(); err != nil {
			return fail(j.name, err)
		}
		fmt.Fprintf(c.out, "[%s finished in %v]\n\n", j.name, time.Since(start).Round(time.Millisecond))
	}
	if *benchJSON != "" {
		data, err := json.MarshalIndent(c.sections, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail("-benchjson", err)
		}
		fmt.Fprintf(c.out, "wrote %s (%d sections)\n", *benchJSON, len(c.sections))
	}
	if tr := c.args.Trace; tr != nil {
		if err := writeTrace(*traceOut, tr); err != nil {
			return fail("-trace", err)
		}
		fmt.Fprintf(c.out, "wrote %s (%d events, %d dropped)\n",
			*traceOut, min(tr.Emitted(), uint64(tr.Capacity())), tr.Dropped())
	}
	return 0
}

// runExperiment is the one runner of the registry's experiments: the
// banner, the run, its tables, the run's own line, the paper note; a
// gated experiment also leaves its section.
func (c *cli) runExperiment(e repro.Experiment) error {
	if e.Banner != nil {
		fmt.Fprintln(c.out, e.Banner(c.args))
	}
	out, err := e.Run(c.args)
	if err != nil {
		return err
	}
	for _, tab := range out.Tables {
		c.printTable(tab)
	}
	if out.Info != "" {
		fmt.Fprintln(c.out, out.Info)
	}
	fmt.Fprintln(c.out, e.Note)
	if out.Gated != nil {
		c.sections[e.Name] = out.Gated
	}
	return nil
}

// printTable renders a result table in the selected format.
func (c *cli) printTable(tab *stats.Table) {
	if c.format == "markdown" {
		fmt.Fprintln(c.out, tab.Markdown())
		return
	}
	fmt.Fprintln(c.out, tab)
}

// writeTrace flushes the recorder to the -trace file.
func writeTrace(path string, tr *repro.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
			return nil, fmt.Errorf("bad %s entry %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// mutatorCount is the soaks' reading of -mutators: its first entry.
func (c *cli) mutatorCount(def int) int {
	if len(c.args.Mutators) > 0 {
		return c.args.Mutators[0]
	}
	return def
}

// churnRound is one soak round's allocation phase: every mutator, on
// its own goroutine, runs churnMutator against its private root slots.
func churnRound(muts []*repro.Mutator, data *repro.Segment, slots, round, allocs int, sizes []int, freeSome bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(muts))
	for g, m := range muts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = churnMutator(m, data, repro.Addr(0x2000+g*slots*4), slots, round, allocs, sizes, freeSome)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			return fmt.Errorf("round %d, mutator %d: %w", round, g, err)
		}
	}
	return nil
}

// churnMutator makes allocs allocations of rotating sizes: every eighth
// rooted in one of the slots at base, the rest garbage, every sixteenth
// pointer-free. With freeSome, every 64th is freed explicitly while its
// root still holds it (so it is provably ours) and the root is cleared.
func churnMutator(m *repro.Mutator, data *repro.Segment, base repro.Addr, slots, round, allocs int, sizes []int, freeSome bool) error {
	for i := 0; i < allocs; i++ {
		size := sizes[(i+round)%len(sizes)]
		if i%8 != 0 {
			if _, err := m.Allocate(size, i%16 == 1); err != nil {
				return err
			}
			continue
		}
		slot := base + repro.Addr(4*((i>>3)%slots))
		p, err := m.AllocateRooted(data, slot, size, false)
		if err != nil {
			return err
		}
		if freeSome && i%64 == 0 {
			if err := m.Free(p); err != nil {
				return err
			}
			if err := m.Store(slot, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// soak churns -mutators goroutines against one generational +
// lazy-sweep world for -soak-cycles rounds. Every round ends in a
// collection (minor, periodically full) and a full integrity audit, so
// a slot double-carved or leaked through the safepoint flush fails the
// run even if it would take many cycles to corrupt anything visible.
func (c *cli) soak() error {
	nMut := c.mutatorCount(8)
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
		Generational: true, MinorDivisor: 8, FullEvery: 4, LazySweep: true,
	})
	if err != nil {
		return err
	}
	w.SetTracer(c.args.Trace)
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
	fmt.Fprintf(c.out, "Soaking %d mutators x %d rounds x %d allocs (generational + lazy sweep)...\n",
		nMut, c.soakCycles, allocsPerRound)
	tab := stats.NewTable(
		fmt.Sprintf("Soak: %d mutators, %d allocs/round", nMut, allocsPerRound),
		"round", "kind", "live objs", "heap KB", "flushed slots", "stop us")
	var lastFlushed uint64
	for round := 0; round < c.soakCycles; round++ {
		if err := churnRound(muts, data, slots, round, allocsPerRound, sizes, true); err != nil {
			return fmt.Errorf("soak %w", err)
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
	want := uint64(nMut * c.soakCycles * allocsPerRound)
	if got := w.Heap.Stats().ObjectsAllocated; got != want {
		return fmt.Errorf("soak: central ObjectsAllocated = %d, mutators performed %d", got, want)
	}
	c.printTable(tab)
	fmt.Fprintln(c.out, "Every round survived a safepoint flush, a sticky-mark collection and a")
	fmt.Fprintln(c.out, "full allocator integrity audit (conservation: live + free + cached slots).")
	return nil
}

// tenantSoak churns -tenants collect-first tenants (plus one fresh
// evict tenant per round) against one concurrent-marking world until
// the -soak-seconds wall-clock budget runs out. Every round ends in a
// settling collection, a full allocator integrity audit, and an exact
// attribution check for every tenant ever created, so budget-counter
// drift or a slot freed out from under its owner fails the soak even
// when the heap itself stays consistent.
func (c *cli) tenantSoak() error {
	nTen := c.args.Tenants
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
	w.SetTracer(c.args.Trace)
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
	fmt.Fprintf(c.out, "Tenant soak: %d collect-first tenants + 1 evict tenant/round for %ds...\n",
		nTen, c.soakSecs)
	deadline := time.Now().Add(time.Duration(c.soakSecs) * time.Second)
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
			fmt.Fprintf(c.out, "  round %d: %d objs allocated, %d live, %d collections\n",
				round, hs.ObjectsAllocated, hs.ObjectsLive, w.Collections())
		}
	}
	hs := w.Heap.Stats()
	fmt.Fprintf(c.out, "Survived %d rounds: %d objects allocated, %d live, %d collections,\n",
		round, hs.ObjectsAllocated, hs.ObjectsLive, w.Collections())
	fmt.Fprintln(c.out, "every round audited for heap integrity, eviction exactness and per-tenant")
	fmt.Fprintln(c.out, "attribution (LiveBytes == owned bytes for every tenant ever created).")
	return nil
}

// leakSoak churns allocation against one concurrent-marking world
// with the retention watcher running until the -soak-seconds budget
// runs out: a planted list leaks from one root slot while -mutators
// goroutines churn rooted and unrooted objects. Every round ends in a
// settling collection and a full integrity audit; at the end the
// watcher must have flagged the planted slot and nothing else.
func (c *cli) leakSoak() error {
	nMut := c.mutatorCount(4)
	w, err := repro.NewWorld(repro.Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
		GCDivisor: 16, ConcurrentMark: true, MarkQuantum: 4096,
		ConcMarkWorkers: 4, ConcurrentSweep: true,
	})
	if err != nil {
		return err
	}
	w.SetTracer(c.args.Trace)
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
	fmt.Fprintf(c.out, "Leak soak: %d churn mutators + 1 planted leak, watcher on every cycle, %ds...\n",
		nMut, c.soakSecs)
	deadline := time.Now().Add(time.Duration(c.soakSecs) * time.Second)
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
					fmt.Fprintf(c.out, "  false positive: %s\n", repro.LeakAlertText(a))
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
		if err := churnRound(muts, data, slots, round, allocsPerRound, sizes, false); err != nil {
			return fmt.Errorf("leak soak %w", err)
		}
		w.Collect()
		w.FinishSweep()
		if err := w.VerifyIntegrity(); err != nil {
			return fmt.Errorf("leak soak round %d: %w", round, err)
		}
		drain()
		if round%25 == 0 {
			hs := w.Heap.Stats()
			fmt.Fprintf(c.out, "  round %d: %d objs live, %d collections, %d leak alerts\n",
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
	fmt.Fprintf(c.out, "Survived %d rounds: %d leak alerts on the planted slot, 0 false positives.\n",
		round, leakAlerts)
	fmt.Fprintf(c.out, "first alert: %s\n", firstLeak)
	fmt.Fprintln(c.out, w.GCTraceSummary())
	return nil
}
