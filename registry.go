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
	Mutators int    // soak and leaksoak mutator count
	Tenants  int    // servebench tenant count
	Requests int    // servebench collect-first requests per session
	// Trace, when non-nil, records collector events from the benchmark
	// drivers' worlds.
	Trace *TraceRecorder
	// Recorded, when non-nil, is an experiment's options as a
	// BENCH.json section holds them. The run uses exactly these and
	// ignores the fields above.
	Recorded json.RawMessage
}

// BenchResult is what an experiment measured: the options it actually
// ran with (defaults filled in) and one row per case. Row types declare
// each column's role in the regression gate with a struct tag:
// gate:"key" (row identity), gate:"exact" (a value that repeats on any
// machine at any scheduler width: recorded in BENCH.json and compared
// for equality by cmd/benchgate) or gate:"info" (interleaving-dependent
// counts: printed in the table, never recorded — hence json:"-" — and
// never compared). Timing is cmd/perfbench's; only E7, E16 and the
// retention report still print a reading of their own.
type BenchResult[O, R any] struct {
	Options O
	Rows    []R
	// Info is a run-dependent line printed under the table.
	Info string
	// More are tables printed after the driver's own (E6 prints its
	// trees apart from its queues and streams).
	More []*stats.Table
}

// Section is one experiment's entry in BENCH.json: Options are
// enough to rerun it, Rows ([]RowType) carry its key and exact columns.
type Section struct {
	Options any `json:"options"`
	Rows    any `json:"rows"`
}

// Outcome is what running an experiment produced.
type Outcome struct {
	Tables []*stats.Table
	Info   string   // run-dependent line printed between the tables and the note
	Gated  *Section // what BENCH.json records of the run
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
	// row type, for decoding a recorded section.
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

// gated registers an experiment whose rows the gate compares: every
// entry of the registry is made by it. fromArgs maps the command line
// to the experiment's options; a recorded section's options replace
// them wholesale.
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
				Tables: append([]*stats.Table{tab}, res.More...), Info: res.Info,
				Gated: &Section{Options: res.Options, Rows: res.Rows},
			}, nil
		},
	}
}

// withBanner sets the progress line printed before a long run.
func (e Experiment) withBanner(banner func(RunArgs) string) Experiment {
	e.Banner = banner
	return e
}

// Experiments is every experiment `gcbench -experiment all` runs, in
// that order: E1–E17 regenerate the paper's tables and figures, the
// rest are this repository's own benchmark drivers. BENCH.json records
// every one's key and exact columns.
var Experiments = []Experiment{
	gated("table1", "E1: program T retention with/without blacklisting",
		`Paper (table 1):
  SPARC(static)   79-79.5% / 78-78.5%   -> 0-.5% / .5-1%
  SPARC(dynamic)  8-9.5%   / 9-11.5%    -> .5% / 0-.5%
  SGI(static)     1.5-8%   / 1-4%       -> 0% / 0%
  OS/2(static)    28%      / 26%        -> 3% / 1%
  PCR             44.5-55%              -> 1.5-3.5%`,
		func(a RunArgs) Table1Options { return Table1Options{Seeds: a.Seeds, Parallel: a.Parallel} },
		Table1,
	).withBanner(func(a RunArgs) string {
		return fmt.Sprintf("Running table 1: 9 configurations x 2 blacklist modes x %d seeds (full program T each)...", a.Seeds)
	}),
	gated("figure1", "E2: small-integer concatenation misidentification",
		`Paper (figure 1): two small integers concatenate to the address 0x00090000;
word-aligned scanning is immune, unaligned scanning is not, and avoiding
allocation at trailing-zero-rich addresses restores immunity.`,
		func(a RunArgs) Figure1Options { return Figure1Options{Seed: a.Seed} }, Figure1),
	gated("stackclear", "E5: apparently-live cells vs stack hygiene",
		`Paper (section 3.1): 40,000-100,000 max apparently-live cells without
clearing; never above 18,000 with cheap clearing; ~2000 optimized.`,
		func(a RunArgs) StackClearOptions { return StackClearOptions{Seed: a.Seed} }, StackClearing),
	gated("grids", "E4: embedded vs separate links (figures 3/4)",
		`Paper (figures 3/4): embedded links retain a large fraction of the grid;
separate cons cells retain at most a single row or column.`,
		func(a RunArgs) GridsOptions { return GridsOptions{Seed: a.Seed} }, Grids),
	gated("structures", "E6: trees, queues, lazy streams",
		`Paper (section 4): tree retention ~ height; queues and lazy lists grow
without bound under one false reference unless links are cleared on removal.`,
		func(a RunArgs) StructuresOptions { return StructuresOptions{Seed: a.Seed} }, Structures),
	gated("overhead", "E7: blacklisting cost, allocation latency (footnote 3)",
		`Paper (footnote 3): blacklisting bookkeeping ~0.2% of collector time,
total overhead usually below 1%; 8-byte alloc+collect ~2us on a SPARC 2.`,
		func(a RunArgs) OverheadOptions { return OverheadOptions{Seed: a.Seed} }, Overhead),
	gated("largeobj", "E8: large objects vs the blacklist (observation 7)",
		`Paper (observation 7): with all interior pointers valid it becomes hard to
allocate objects over ~100 KB; base-pointer-only validity has no trouble.`,
		func(a RunArgs) LargeObjectsOptions { return LargeObjectsOptions{Seed: a.Seed} }, LargeObjects),
	gated("pcrsweep", "E9: PCR retention vs Cedar world size (appendix B)",
		`Paper (appendix B): 1.5-13 MB of other live data had minimal effect on the
amount of retained storage.`,
		func(a RunArgs) PCRSweepOptions { return PCRSweepOptions{Seeds: a.Seeds, Parallel: a.Parallel} },
		PCRSweep),
	gated("frag", "E10: address-ordered vs LIFO free blocks (conclusions)",
		`Paper (conclusions): address-sorted free lists make large adjacent chunks
more likely to reform, decreasing fragmentation.`,
		func(a RunArgs) FragmentationOptions { return FragmentationOptions{Seed: a.Seed} }, Fragmentation),
	gated("dualrun", "E11: dual-run offset certification (footnote 4)",
		`Paper (footnote 4): two copies of the program with heap bases differing by n;
corresponding values not differing by n are provably non-pointers.`,
		func(a RunArgs) DualRunOptions { return DualRunOptions{Seed: a.Seed} }, DualRun),
	gated("genceiling", "E12: stray stack pointers vs generational collection (§3.1)",
		`Paper (section 3.1, end): stray stack pointers lengthen object lifetimes,
"placing a ceiling on the effectiveness of generational collection".`,
		func(a RunArgs) GenerationalOptions { return GenerationalOptions{Seed: a.Seed} }, GenerationalCeiling),
	gated("placement", "E13: heap placement in the address space (§2)",
		`Paper (section 2): position the heap where the high-order address bits are
neither all zeros nor all ones, away from character codes and float values.`,
		func(a RunArgs) HeapPlacementOptions { return HeapPlacementOptions{Seed: a.Seed} }, HeapPlacement),
	gated("atomic", "E14: pointer-free allocation for compressed data (§2)",
		`Paper (section 2): large pointer-free data (compressed bitmaps) must be
allocated as such, or its contents introduce false pointers wholesale.`,
		func(a RunArgs) AtomicDataOptions { return AtomicDataOptions{Seed: a.Seed} }, AtomicData),
	gated("typed", "E15: conservative vs exact heap layouts (introduction)",
		`Paper (introduction): implementations vary in their degree of conservativism;
exact heap layouts eliminate misidentification from non-pointer fields.`,
		func(a RunArgs) ConservatismOptions { return ConservatismOptions{Seed: a.Seed} }, DegreesOfConservatism),
	gated("pauses", "E16: stop-the-world vs assist-marked concurrent vs generational pauses",
		`Paper (introduction): "concurrent collectors that greatly reduce client
pause times" [8] and generational conservative collectors [13] both exist;
this reproduces their pause profiles on the same substrate.`,
		func(a RunArgs) PausesOptions { return PausesOptions{Seed: a.Seed} }, Pauses),
	gated("obs5", "E17: residual references die under continued execution",
		`Paper (observation 5): references remaining even with blacklisting come from
stack/register residue and are "eventually overwritten in a longer running
program with more varied stack frames".`,
		func(RunArgs) Observation5Options { return Observation5Options{} }, Observation5),
	gated("servebench", "multi-tenant serving: per-tenant budgets under three policies",
		`Each policy row replays one deterministic session tape per tenant against a
fixed budget, so admissions, denials, evictions, reclamation and liveness
are exact and gated by cmd/benchgate; a zero fairness spread means budget
enforcement never leaked between tenants. cmd/perfbench's serve_tenants
row is where its latency and pauses are measured.`,
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
exact and gated by cmd/benchgate.`,
		func(a RunArgs) LeakBenchOptions { return LeakBenchOptions{Trace: a.Trace} },
		LeakBench),
}
