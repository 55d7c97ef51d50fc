package repro

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/stats"
)

// RunArgs is everything a caller can vary about a registered experiment.
// cmd/gcbench fills the fields from its flags; cmd/benchgate sets only
// Recorded. Each experiment reads the fields it has a use for.
type RunArgs struct {
	Seed     uint64 // base seed of single-run experiments
	Seeds    int    // seeds per cell of the table-1 style sweeps
	Parallel int    // concurrent runs in those sweeps
	Workers  []int  // markbench worker counts
	Mutators []int  // mutator counts (pausebench takes the first)
	Tenants  int    // servebench tenant count
	Requests int    // servebench collect-first requests per session
	// Trace, when non-nil, records collector events from the gated
	// experiments' worlds.
	Trace *TraceRecorder
	// Recorded, when non-nil, is a gated experiment's options as a
	// BENCH.json section holds them. The run uses exactly these and
	// ignores the fields above.
	Recorded json.RawMessage
}

// BenchResult is what a gated experiment measured: the options it
// actually ran with (defaults filled in) and one row per case. Row
// types declare each column's role in the regression gate with a
// struct tag: gate:"key" (row identity), gate:"exact" (a count that
// repeats on any machine at any scheduler width: recorded in
// BENCH.json and compared for equality by cmd/benchgate) or
// gate:"info" (timing and interleaving-dependent values: printed in
// the table, never recorded — hence json:"-" — and never compared; for
// timing see cmd/perfbench).
type BenchResult[O, R any] struct {
	Options O
	Rows    []R
	// Info is a run-dependent line printed under the table.
	Info string
}

// Section is one gated experiment's entry in BENCH.json: Options are
// enough to rerun it, Rows ([]RowType) carry its key and exact columns.
type Section struct {
	Options any `json:"options"`
	Rows    any `json:"rows"`
}

// Outcome is what running an experiment produced.
type Outcome struct {
	Tables []*stats.Table
	Info   string   // run-dependent line printed between the tables and the note
	Gated  *Section // nil unless the experiment has gated rows
}

// Experiment is one entry of the registry that cmd/gcbench and
// cmd/benchgate both iterate.
type Experiment struct {
	Name  string
	Title string // one line for listings
	Note  string // what the paper says, printed under the tables
	// Banner, when set, is a progress line printed before a long run.
	Banner func(RunArgs) string
	Run    func(RunArgs) (*Outcome, error)
	// NewRows returns a pointer to an empty slice of the experiment's
	// gated row type, for decoding a recorded section; nil when the
	// experiment has no gated rows.
	NewRows func() any
}

// DecodeRecorded decodes a piece of a BENCH.json section into the
// type it was recorded from. A field that type does not have is an
// error: a misspelt option would otherwise rerun at its default, and a
// column no longer recorded would otherwise stop being compared.
func DecodeRecorded(raw json.RawMessage, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// table adapts an experiment function's (result, table, error) to the
// one table the registry keeps.
func table[T any](_ T, tab *stats.Table, err error) (*Outcome, error) {
	if err != nil {
		return nil, err
	}
	return &Outcome{Tables: []*stats.Table{tab}}, nil
}

// gated registers a benchmark driver whose rows the gate compares.
// fromArgs maps the command line to the driver's options; a recorded
// section's options replace them wholesale.
func gated[O, R any](name, title, note string, fromArgs func(RunArgs) O,
	drive func(O) (*BenchResult[O, R], *stats.Table, error)) Experiment {
	return Experiment{
		Name: name, Title: title, Note: note,
		NewRows: func() any { return new([]R) },
		Run: func(a RunArgs) (*Outcome, error) {
			var opts O
			if a.Recorded == nil {
				opts = fromArgs(a)
			} else if err := DecodeRecorded(a.Recorded, &opts); err != nil {
				return nil, fmt.Errorf("%s: recorded options: %w", name, err)
			}
			res, tab, err := drive(opts)
			if err != nil {
				return nil, err
			}
			return &Outcome{
				Tables: []*stats.Table{tab}, Info: res.Info,
				Gated: &Section{Options: res.Options, Rows: res.Rows},
			}, nil
		},
	}
}

// Experiments is every experiment `gcbench -experiment all` runs, in
// that order: E1–E17 regenerate the paper's tables and figures, the
// rest are this repository's own benchmark drivers, whose key and exact
// columns BENCH.json records.
var Experiments = []Experiment{
	{
		Name: "table1", Title: "E1: program T retention with/without blacklisting",
		Banner: func(a RunArgs) string {
			return fmt.Sprintf("Running table 1: 9 configurations x 2 blacklist modes x %d seeds (full program T each)...", a.Seeds)
		},
		Run: func(a RunArgs) (*Outcome, error) {
			return table(Table1(Table1Options{Seeds: a.Seeds, Parallel: a.Parallel}))
		},
		Note: `Paper (table 1):
  SPARC(static)   79-79.5% / 78-78.5%   -> 0-.5% / .5-1%
  SPARC(dynamic)  8-9.5%   / 9-11.5%    -> .5% / 0-.5%
  SGI(static)     1.5-8%   / 1-4%       -> 0% / 0%
  OS/2(static)    28%      / 26%        -> 3% / 1%
  PCR             44.5-55%              -> 1.5-3.5%`,
	},
	{
		Name: "figure1", Title: "E2: small-integer concatenation misidentification",
		Run: func(a RunArgs) (*Outcome, error) { return table(Figure1(Figure1Options{Seed: a.Seed})) },
		Note: `Paper (figure 1): two small integers concatenate to the address 0x00090000;
word-aligned scanning is immune, unaligned scanning is not, and avoiding
allocation at trailing-zero-rich addresses restores immunity.`,
	},
	{
		Name: "stackclear", Title: "E5: apparently-live cells vs stack hygiene",
		Run: func(a RunArgs) (*Outcome, error) { return table(StackClearing(StackClearOptions{Seed: a.Seed})) },
		Note: `Paper (section 3.1): 40,000-100,000 max apparently-live cells without
clearing; never above 18,000 with cheap clearing; ~2000 optimized.`,
	},
	{
		Name: "grids", Title: "E4: embedded vs separate links (figures 3/4)",
		Run: func(a RunArgs) (*Outcome, error) { return table(Grids(GridsOptions{Seed: a.Seed})) },
		Note: `Paper (figures 3/4): embedded links retain a large fraction of the grid;
separate cons cells retain at most a single row or column.`,
	},
	{
		Name: "structures", Title: "E6: trees, queues, lazy streams",
		Run: func(a RunArgs) (*Outcome, error) {
			_, trees, err := Trees(nil, 0, a.Seed)
			if err != nil {
				return nil, err
			}
			_, queues, err := QueuesAndStreams(0, 0, a.Seed)
			if err != nil {
				return nil, err
			}
			return &Outcome{Tables: []*stats.Table{trees, queues}}, nil
		},
		Note: `Paper (section 4): tree retention ~ height; queues and lazy lists grow
without bound under one false reference unless links are cleared on removal.`,
	},
	{
		Name: "overhead", Title: "E7: blacklisting cost, allocation latency (footnote 3)",
		Run: func(a RunArgs) (*Outcome, error) { return table(Overhead(a.Seed)) },
		Note: `Paper (footnote 3): blacklisting bookkeeping ~0.2% of collector time,
total overhead usually below 1%; 8-byte alloc+collect ~2us on a SPARC 2.`,
	},
	{
		Name: "largeobj", Title: "E8: large objects vs the blacklist (observation 7)",
		Run: func(a RunArgs) (*Outcome, error) { return table(LargeObjects(LargeObjectsOptions{Seed: a.Seed})) },
		Note: `Paper (observation 7): with all interior pointers valid it becomes hard to
allocate objects over ~100 KB; base-pointer-only validity has no trouble.`,
	},
	{
		Name: "pcrsweep", Title: "E9: PCR retention vs Cedar world size (appendix B)",
		Run: func(a RunArgs) (*Outcome, error) { return table(PCRSweep(nil, a.Seeds, a.Parallel)) },
		Note: `Paper (appendix B): 1.5-13 MB of other live data had minimal effect on the
amount of retained storage.`,
	},
	{
		Name: "frag", Title: "E10: address-ordered vs LIFO free blocks (conclusions)",
		Run: func(a RunArgs) (*Outcome, error) { return table(Fragmentation(FragmentationOptions{Seed: a.Seed})) },
		Note: `Paper (conclusions): address-sorted free lists make large adjacent chunks
more likely to reform, decreasing fragmentation.`,
	},
	{
		Name: "dualrun", Title: "E11: dual-run offset certification (footnote 4)",
		Run: func(a RunArgs) (*Outcome, error) { return table(DualRun(DualRunOptions{Seed: a.Seed})) },
		Note: `Paper (footnote 4): two copies of the program with heap bases differing by n;
corresponding values not differing by n are provably non-pointers.`,
	},
	{
		Name: "genceiling", Title: "E12: stray stack pointers vs generational collection (§3.1)",
		Run: func(a RunArgs) (*Outcome, error) {
			return table(GenerationalCeiling(GenerationalOptions{Seed: a.Seed}))
		},
		Note: `Paper (section 3.1, end): stray stack pointers lengthen object lifetimes,
"placing a ceiling on the effectiveness of generational collection".`,
	},
	{
		Name: "placement", Title: "E13: heap placement in the address space (§2)",
		Run: func(a RunArgs) (*Outcome, error) { return table(HeapPlacement(HeapPlacementOptions{Seed: a.Seed})) },
		Note: `Paper (section 2): position the heap where the high-order address bits are
neither all zeros nor all ones, away from character codes and float values.`,
	},
	{
		Name: "atomic", Title: "E14: pointer-free allocation for compressed data (§2)",
		Run: func(a RunArgs) (*Outcome, error) { return table(AtomicData(AtomicDataOptions{Seed: a.Seed})) },
		Note: `Paper (section 2): large pointer-free data (compressed bitmaps) must be
allocated as such, or its contents introduce false pointers wholesale.`,
	},
	{
		Name: "typed", Title: "E15: conservative vs exact heap layouts (introduction)",
		Run: func(a RunArgs) (*Outcome, error) {
			return table(DegreesOfConservatism(ConservatismOptions{Seed: a.Seed}))
		},
		Note: `Paper (introduction): implementations vary in their degree of conservativism;
exact heap layouts eliminate misidentification from non-pointer fields.`,
	},
	{
		Name: "pauses", Title: "E16: stop-the-world vs mostly-concurrent vs generational pauses",
		Run: func(a RunArgs) (*Outcome, error) { return table(Pauses(PausesOptions{Seed: a.Seed})) },
		Note: `Paper (introduction): "concurrent collectors that greatly reduce client
pause times" [8] and generational conservative collectors [13] both exist;
this reproduces their pause profiles on the same substrate.`,
	},
	{
		Name: "obs5", Title: "E17: residual references die under continued execution",
		Run: func(a RunArgs) (*Outcome, error) { return table(Observation5(Observation5Options{})) },
		Note: `Paper (observation 5): references remaining even with blacklisting come from
stack/register residue and are "eventually overwritten in a longer running
program with more varied stack frames".`,
	},
	gated("markbench", "parallel mark-phase scaling by worker count",
		`Parallel marking is not in the paper; it shards the figure-2 mark phase
with CAS mark bits and work stealing, marking the identical object set:
the objects-marked count per row is exact and gated by cmd/benchgate.
Worker counts above GOMAXPROCS serialise and measure overhead only.`,
		func(a RunArgs) MarkBenchOptions { return MarkBenchOptions{Workers: a.Workers, Trace: a.Trace} },
		MarkBench),
	gated("sweepbench", "collection pauses, eager vs lazy sweeping",
		`Lazy sweeping replaces the pause's per-slot heap walk with an O(blocks)
mark-summary scan; the per-slot work is paid during allocation instead.
Reclamation totals are identical by construction (checked above) and,
with the deferred-block counts, gated by cmd/benchgate.`,
		func(a RunArgs) SweepBenchOptions { return SweepBenchOptions{Trace: a.Trace} },
		SweepBench),
	gated("mutbench", "concurrent-mutator allocation throughput by mutator count",
		`Concurrent mutators are not in the paper's measurements, but its collector
serves multi-threaded PCR programs; this measures the per-mutator allocation
caches and the stop-the-world safepoint protocol under allocation churn.
The object count per row is deterministic and gated by cmd/benchgate;
collection counts depend on goroutine interleaving and are informational.`,
		func(a RunArgs) MutBenchOptions { return MutBenchOptions{Mutators: a.Mutators, Trace: a.Trace} },
		MutBench),
	gated("allocbench", "free-list vs line-heap allocation profiles by mutator count",
		`The line heap replaces per-slot free-list threading with bump spans carved
over runs of free 256-byte lines; sweeping reclaims at line granularity and
the waste column is the space stranded in partly-live lines. Object counts
per row are deterministic in both profiles and gated by cmd/benchgate.`,
		func(a RunArgs) AllocBenchOptions { return AllocBenchOptions{Mutators: a.Mutators, Trace: a.Trace} },
		AllocBench),
	gated("pausebench", "stop-the-world vs mostly-concurrent marking pause percentiles",
		`Every row replays the same deterministic no-free workload: the live graph
grows all run, so stop-the-world pauses grow with it while concurrent
cycles pause only for the root snapshot and the root-rescan finale.
Object and live counts are exact and gated by cmd/benchgate; the pause
percentiles are a reading on this machine, never recorded or compared.`,
		func(a RunArgs) PauseBenchOptions {
			opts := PauseBenchOptions{Trace: a.Trace}
			if len(a.Mutators) > 0 {
				opts.Mutators = a.Mutators[0]
			}
			return opts
		},
		PauseBench),
	gated("servebench", "multi-tenant serving: per-tenant budgets under three policies",
		`Each policy row replays one deterministic session tape per tenant against a
fixed budget, so admissions, denials, evictions, reclamation and liveness
are exact and gated by cmd/benchgate; a zero fairness spread means budget
enforcement never leaked between tenants. Latency and pause percentiles
are a reading on this machine, never recorded or compared.`,
		func(a RunArgs) ServeBenchOptions {
			return ServeBenchOptions{Tenants: a.Tenants, Requests: a.Requests, Trace: a.Trace}
		},
		ServeBench),
	gated("retention", "spurious-retention attribution on the section-4 lazy stream",
		`Paper (section 4): one stale stack word holding a lazy stream's first cell
retains the whole memoised chain. The retention report re-marks a censored
copy of the roots to attribute the chain as spurious, and the sole-retention
ranking names the guilty slot without being told. Every count is
deterministic and gated exactly by cmd/benchgate; only report ms is timing.`,
		func(a RunArgs) RetentionBenchOptions { return RetentionBenchOptions{Trace: a.Trace} },
		RetentionBench),
	gated("leakbench", "online leak watcher: planted slow leak vs churn control",
		`Online leak detection: the retention watcher samples every 2nd collection at
the cycle barrier, diffs per-root-slot retention snapshots, and alerts on
sustained windowed growth. The planted leak (one monotone list root among
eight churning roots) must be flagged within a bounded cycle count with zero
false positives; the churn-only control must stay silent. Both outcomes are
exact and gated by cmd/benchgate; only elapsed ms is timing.`,
		func(a RunArgs) LeakBenchOptions { return LeakBenchOptions{Trace: a.Trace} },
		LeakBench),
}
