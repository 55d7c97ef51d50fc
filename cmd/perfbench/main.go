// Command perfbench is the repository's benchmark: five deterministic
// closed-loop workloads, ten end-to-end metrics, and — in a traced run —
// a per-layer cost ledger. README.md in this directory describes the
// workloads, the metrics and how they are expected to interact.
//
//	perfbench -workload serve_churn -seed 1              end-to-end metrics
//	perfbench -workload serve_churn -seed 1 -trace 1     per-layer metrics
//	perfbench -workload all                              one child process per workload
//	perfbench -workload live_graph_stw -repeat 6         noise report
//	perfbench -heapx 1.25,1.5,2,3,4                      space–time curve
//
// Every run verifies its outputs and exits non-zero, printing no
// metrics, if a check fails. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// fullSeconds is BENCHMARK.json's run_seconds: the timed phase the
// tapes at scale 1 were sized for on the reference box. -seconds scales
// every tape's operation count by seconds/fullSeconds, so a tape is the
// same for the same (seed, seconds) whatever machine runs it.
const fullSeconds = 10

func main() {
	var (
		workload = flag.String("workload", "", "one of "+fmt.Sprint(workloadNames)+", or all")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same tape")
		seconds  = flag.Float64("seconds", fullSeconds, "nominal length of the timed phase; scales the tape")
		trace    = flag.Int("trace", 0, "1 reruns the tape with spans and layer probes and prints the per-layer metrics")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		traceOut = flag.String("trace-out", "", "file for a traced run's spans (default .bench_build/perfbench-trace-<workload>.json)")
		repeat   = flag.Int("repeat", 0, "run the workload this many times in fresh processes and print a noise report")
		heapx    = flag.String("heapx", "", "comma-separated heap sizes as multiples of live bytes: space–time mode")
		heapMult = flag.Float64("heap-mult", 0, "fix the heap at this multiple of the tape's live bytes (set by -heapx)")
		wall     = flag.Bool("wallclock", false, "report durations on the wall clock instead of the calibrated clock")
		dump     = flag.Bool("dump", false, "add every segment's and cycle's wall-clock values and slowdown factors to the summary line")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fail(errors.New("-seconds must be positive"))
	}
	o := options{
		seed:      *seed,
		scale:     *seconds / fullSeconds,
		traced:    *traced || *trace != 0,
		traceOut:  *traceOut,
		heapMult:  *heapMult,
		wallClock: *wall,
		dump:      *dump,
	}
	var err error
	switch {
	case *heapx != "":
		err = spaceTime(*heapx, o)
	case *repeat > 0:
		err = noiseReport(*workload, *repeat, o)
	case *workload == "all":
		err = runAll(o)
	default:
		err = runOne(*workload, o)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and prints its metrics.
func runOne(name string, o options) error {
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q: want one of %v, or all", name, workloadNames)
	}
	if o.traced && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "perfbench-trace-"+name+".json")
	}
	var r *result
	var err error
	if sp := tapeSpec(name); sp != nil {
		r, err = runTape(sp, o)
	} else {
		if o.heapMult != 0 {
			return errors.New("program_t has a fixed heap: -heap-mult does not apply")
		}
		r, err = runProgramT(o)
	}
	if err != nil {
		return err
	}
	return r.print(os.Stdout)
}
