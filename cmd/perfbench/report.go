package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// child reruns this binary for one workload in a fresh process and
// returns its standard output with the report parsed from the last
// line. Every workload is measured in a process of its own so that one
// workload's garbage and resident set never colour another's.
func child(name string, o options) (*report, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.scale*fullSeconds, 'g', -1, 64),
	}
	if o.traced {
		args = append(args, "-trace", "1")
	}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	if o.heapMult != 0 {
		args = append(args, "-heap-mult", strconv.FormatFloat(o.heapMult, 'g', -1, 64))
	}
	if o.wallClock {
		args = append(args, "-wallclock")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, out, fmt.Errorf("%s (seed %d): %w", name, o.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, out, fmt.Errorf("%s: parsing the report line: %w", name, err)
	}
	return &rep, out, nil
}

// runAll runs the five workloads, one child process each, passes their
// output through and ends with their reports merged into one object.
func runAll(o options) error {
	merged := map[string]*report{}
	for _, name := range workloadNames {
		rep, out, err := child(name, o)
		os.Stdout.Write(out)
		if err != nil {
			return err
		}
		merged[name] = rep
	}
	line, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), which is what the benchmark's driver
// uses to judge spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// noiseReport runs a workload k times in fresh processes, one seed
// each, and prints how far the runs spread. The runs are split into two
// interleaved sets; if the sets' medians of any end-to-end metric are
// further apart than that metric's bound, or the runs' quartiles are,
// the same code would fail its own regression gate, and the report
// fails.
func noiseReport(name string, k int, o options) error {
	names := []string{name}
	if name == "all" {
		names = workloadNames
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	var bad []string
	for _, wl := range names {
		vals := map[string][]float64{}
		for i := 0; i < k; i++ {
			oi := o
			oi.seed = o.seed + uint64(i)
			rep, _, err := child(wl, oi)
			if err != nil {
				return err
			}
			for m, v := range rep.Metrics {
				vals[m] = append(vals[m], v.Value)
			}
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d, -seconds %g\n", wl, k, o.seed, o.seed+uint64(k)-1, o.scale*fullSeconds)
		fmt.Printf("| %-34s | %-5s | %12s | %12s | %12s | %7s | %7s | %7s | %5s |\n",
			"metric", "unit", "q1", "median", "q3", "iqr/med", "rng/med", "setdiff", "bound")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, d := range defs {
			v := vals[d.name]
			q1, med, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			var a, b []float64
			for i, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			rel := func(x float64) float64 { return ratio(x, math.Abs(med)) }
			setDiff := rel(math.Abs(stats.Median(a) - stats.Median(b)))
			bound := "-"
			if d.bound > 0 {
				bound = strconv.FormatFloat(d.bound, 'g', -1, 64)
				if len(b) > 0 && setDiff > d.bound {
					bad = append(bad, fmt.Sprintf("%s/%s: set medians %.4g apart, bound %g", wl, d.name, setDiff, d.bound))
				}
				// The driver exempts set-up time from the spread rule.
				if d.name != "setup_s" && rel(q3-q1) > d.bound {
					bad = append(bad, fmt.Sprintf("%s/%s: quartiles %.4g apart, bound %g", wl, d.name, rel(q3-q1), d.bound))
				}
			}
			fmt.Printf("| %-34s | %-5s | %12.6g | %12.6g | %12.6g | %7.4f | %7.4f | %7.4f | %5s |\n",
				d.name, d.unit, q1, med, q3, rel(q3-q1), rel(hi-lo), setDiff, bound)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("runs of the same code disagree by more than the bound:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// spaceTime reruns the mark-bound and the allocation-bound workload
// with the heap fixed at each given multiple of live bytes, and prints
// speed against space: the axis on which a footprint claim and a speed
// claim can be read off one curve.
func spaceTime(list string, o options) error {
	var mults []float64
	for _, f := range strings.Split(list, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || x <= 0 {
			return fmt.Errorf("-heapx: %q is not a positive number", f)
		}
		mults = append(mults, x)
	}
	fmt.Printf("| %-15s | %6s | %10s | %13s | %12s | %10s |\n", "workload", "x live", "heap MiB", "alloc_per_sec", "pause_p50_us", "ops failed")
	fmt.Println("|---|---|---|---|---|---|")
	for _, wl := range []string{"live_graph_stw", "serve_churn"} {
		live := tapeSpec(wl).nominalLive
		for _, x := range mults {
			ox := o
			ox.heapMult = x
			mib := x * float64(live) / (1 << 20)
			rep, _, err := child(wl, ox)
			if err != nil {
				fmt.Printf("| %-15s | %6g | %10.2f | %13s | %12s | %10s |\n", wl, x, mib, "did not run", "-", "-")
				continue
			}
			fmt.Printf("| %-15s | %6g | %10.2f | %13.6g | %12.6g | %10d |\n", wl, x, mib,
				rep.Metrics["alloc_per_sec"].Value, rep.Metrics["pause_p50_us"].Value, rep.Failed)
		}
	}
	return nil
}
