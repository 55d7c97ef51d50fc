package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/simrand"
)

// testScale is the share of the full tape the workload tests play.
const testScale = 1.0 / 200

func smallSpec(t *testing.T, name string) *spec {
	t.Helper()
	sp := tapeSpec(name)
	if sp == nil {
		t.Fatalf("no tape workload %q", name)
	}
	return sp
}

func runSmall(t *testing.T, name string, o options) *result {
	t.Helper()
	o.scale = testScale
	var r *result
	var err error
	if name == "program_t" {
		r, err = runProgramT(o)
	} else {
		r, err = runTape(smallSpec(t, name), o)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func TestHistAgainstSortedSlice(t *testing.T) {
	rng := simrand.New(7)
	var h hist
	var vals []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 16 ns .. 16 ms, with a thin far tail.
		v := int64(16 * math.Pow(2, 20*rng.Float64()))
		if rng.Intn(1000) == 0 {
			v *= 50
		}
		h.add(v)
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	within := func(what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s = %g, sorted slice gives %g (tolerance %g)", what, got, want, tol)
		}
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(vals))))
		within("quantile", h.quantile(q), vals[rank-1], 1.0/histSub)
	}
	k := int(math.Ceil(0.01 * float64(len(vals))))
	var tail, all float64
	for i, v := range vals {
		all += v
		if i >= len(vals)-k {
			tail += v
		}
	}
	within("tailMean(0.01)", h.tailMean(0.01), tail/float64(k), 0.005)
	within("mean", h.mean(), all/float64(len(vals)), 1e-9)

	var one hist
	one.add(1234)
	if got := one.tailMean(0.01); got != 1234 {
		t.Errorf("tail mean of a single sample = %g, want the sample", got)
	}
}

// The calibrator on a clock that advances a fixed step per reading: a
// probe reads it twice, so a sample lasts one step.
func TestCalibratorFactors(t *testing.T) {
	var clock, step int64
	now := func() int64 { clock += step; return clock }
	step = int64(refNominalNs)
	c := newCalibrator(now)
	c.probe()
	c.probe()
	if f, low := c.close(); f != 1 || low != 1 {
		t.Errorf("nominal samples give factors %g and %g, want 1", f, low)
	}
	calm := clock
	step = int64(1.5 * refNominalNs)
	c.probe()
	step *= 10 // one sample during which the thread was descheduled: left out
	c.probe()
	step /= 10
	c.probe()
	step = int64(2.5 * refNominalNs)
	c.probe()
	// Samples 1.5, 1.5, 2.5 and 15 times nominal: the mean of the first
	// three, and the first decile of all four.
	if f, low := c.close(); math.Abs(f-5.5/3) > 1e-3 || math.Abs(low-1.5) > 1e-3 {
		t.Errorf("factors %g and %g, want 1.833 and 1.5", f, low)
	}
	if f, low := c.close(); math.Abs(f-5.5/3) > 1e-3 || math.Abs(low-1.5) > 1e-3 {
		t.Errorf("a stretch without samples has factors %g and %g, want the previous stretch's", f, low)
	}
	if f := c.at(calm); f != 1 {
		t.Errorf("factor at a time in the first stretch = %g, want 1", f)
	}
	if f := c.at(clock + 1<<40); math.Abs(f-5.5/3) > 1e-3 {
		t.Errorf("factor after the last stretch = %g, want the last stretch's", f)
	}

	// A duration measured at factor 1.5 with exponent 2 is divided by
	// 2.25; exponent 0 is the wall clock.
	d := timed{ns: 450, f: 1.5}
	if got := d.on(2); math.Abs(got-200) > 1e-9 {
		t.Errorf("450 ns at factor 1.5, exponent 2 = %g ns, want 200", got)
	}
	if got := d.on(0); got != 450 {
		t.Errorf("exponent 0 gives %g ns, want the wall clock's 450", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	var clock int64
	tr := newTracer(func() int64 { return clock }, 1, 0)
	at := func(ns int64) { clock = ns }

	// request [0,100): alloc [10,30), store [30,45) adjacent to it, and
	// alloc [50,90) with a cycle [60,80) nested inside, itself holding
	// mark [62,70) and sweep [70,78).
	tr.sampled = true
	at(0)
	tr.begin(spRequest)
	at(10)
	tr.begin(spAlloc)
	at(30)
	tr.end()
	tr.begin(spStore)
	at(45)
	tr.end()
	at(50)
	tr.begin(spAlloc)
	tr.beginAt(spCycle, 60)
	tr.leaf(spMark, 62, 70)
	tr.leaf(spSweep, 70, 78)
	tr.endAt(80)
	at(90)
	tr.end()
	at(100)
	tr.end()

	want := map[string][]int64{ // name → self times in closing order
		"core.AllocateRooted": {20, 20}, // the second is 40 minus the 20 ns cycle
		"core.Store":          {15},
		"mark.pause":          {8},
		"alloc.sweep":         {8},
		"core.cycle":          {4},  // 20 minus mark and sweep
		"workload.request":    {25}, // 100 minus 20, 15 and 40
	}
	got := map[string][]int64{}
	parents := map[uint32]uint32{}
	ids := map[string]uint32{}
	for _, s := range tr.kept {
		got[s.Name] = append(got[s.Name], s.Self)
		parents[s.ID] = s.Parent
		ids[s.Name] = s.ID
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %d spans kept, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s[%d]: self %d ns, want %d", name, i, g[i], w[i])
			}
		}
	}
	if parents[ids["mark.pause"]] != ids["core.cycle"] || parents[ids["core.cycle"]] != ids["core.AllocateRooted"] ||
		parents[ids["core.AllocateRooted"]] != ids["workload.request"] || parents[ids["workload.request"]] != 0 {
		t.Errorf("parent chain is wrong: %v", parents)
	}
	if n := tr.self[spAlloc].n; n != 2 || tr.self[spAlloc].mean() != 20 {
		t.Errorf("alloc self histogram: n=%d mean=%g, want 2 and 20", n, tr.self[spAlloc].mean())
	}

	// An unsampled request's spans are aggregated but not kept; cycle
	// spans are always kept.
	kept := len(tr.kept)
	tr.sampled = false
	tr.begin(spRequest)
	tr.begin(spAlloc)
	tr.leaf(spCycle, 100, 100)
	tr.end()
	tr.end()
	if len(tr.kept) != kept+1 || tr.self[spAlloc].n != 3 {
		t.Errorf("unsampled request: %d spans kept (want %d), %d allocs aggregated (want 3)", len(tr.kept), kept+1, tr.self[spAlloc].n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32})
	if q1 != 1.75 || q2 != 6 || q3 != 20 {
		t.Errorf("quartiles = %g %g %g, want 1.75 6 20", q1, q2, q3)
	}
}

// Every workload, at 1/200 of its tape, passes its own output checks
// (runTape and runProgramT fail otherwise) and fills in every metric.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := runSmall(t, name, options{seed: 3, traced: traced})
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s: %d of %d operations failed", name, r.failed, r.attempted)
			}
			if !traced {
				vals, err := r.endToEndValues()
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range endToEnd {
					if v, ok := vals[d.name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, d.name, v)
					}
				}
				continue
			}
			vals := r.perLayerValues()
			for _, d := range perLayer {
				if v, ok := vals[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: per-layer metric %s = %v, want a number", name, d.name, v)
				}
			}
			if vals["core.alloc_call_mean_ns"] <= 0 && name != "program_t" {
				t.Errorf("%s: no allocation spans were recorded", name)
			}
			// (Not program_t: at this scale its cycles are so short that
			// the per-cycle bookkeeping between the phases shows.)
			if vals["core.pause_unattributed_share"] > 0.10 && r.cyc.concurrent == 0 && name != "program_t" {
				t.Errorf("%s: %.3f of stopped time is not attributed to a phase", name, vals["core.pause_unattributed_share"])
			}
		}
	}
}

// counts are the metrics that must repeat bit for bit on the three
// single-goroutine stop-the-world workloads.
func counts(r *result) map[string]float64 {
	m := r.perLayerValues()
	out := map[string]float64{
		"footprint_ratio": ratio(float64(r.peakHeap), float64(r.liveBytes)),
		"retained_pct":    r.retainedPct(),
	}
	for _, k := range []string{
		"core.cycles", "platform.retained_lists", "workload.allocs", "workload.stores", "workload.requests",
		"workload.live_bytes_end", "workload.live_objects_end", "mark.objects_per_cycle", "alloc.objects_freed_per_cycle",
	} {
		out[k] = m[k]
	}
	return out
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"serve_churn", "live_graph_stw", "program_t"} {
		a := counts(runSmall(t, name, options{seed: 5}))
		b := counts(runSmall(t, name, options{seed: 5}))
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %v on one run and %v on the next, same seed", name, k, v, b[k])
			}
		}
	}
	// A different seed is a different tape: the root-slot clears land
	// elsewhere, so a different set of objects is live at the end.
	a := runSmall(t, "serve_churn", options{seed: 5})
	b := runSmall(t, "serve_churn", options{seed: 6})
	if a.liveBytes == b.liveBytes && a.liveObjects == b.liveObjects {
		t.Errorf("serve_churn: seeds 5 and 6 end with the same %d live bytes in %d objects", a.liveBytes, a.liveObjects)
	}
	if a.allocs != b.allocs {
		t.Errorf("serve_churn: the tape's length depends on the seed: %d and %d allocations", a.allocs, b.allocs)
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this package defines, with the same units, directions and
// bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != fullSeconds {
		t.Errorf("run_seconds = %d, the tapes are sized for %d", bj.RunSeconds, fullSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
		if _, ok := workloadGammas[w.Name]; !ok {
			t.Errorf("workload %q has no exponents for the calibrated clock", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d is %+v, want %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
