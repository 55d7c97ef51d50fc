package repro

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
)

// OverheadOptions configures the footnote-3 measurement (E7).
type OverheadOptions struct {
	Seed uint64 `json:"seed"`
}

// OverheadRow reports the footnote-3 measurement (E7) on one profile:
// the total cost of blacklisting bookkeeping as a fraction of run time,
// and the small-object allocation latency. The times are readings; the
// retention, blacklist and heap figures repeat exactly.
type OverheadRow struct {
	Profile         string        `json:"profile" gate:"key"`
	RunWithout      time.Duration `json:"-" gate:"info"`
	RunWith         time.Duration `json:"-" gate:"info"`
	OverheadPct     float64       `json:"-" gate:"info"` // (with-without)/without * 100
	AllocNanos      float64       `json:"-" gate:"info"` // hot-path 8-byte allocation, ns/op
	BlacklistAdds   uint64        `json:"blacklist_adds" gate:"exact"`
	BlacklistLen    int           `json:"blacklist_len" gate:"exact"`
	RetainedWith    float64       `json:"retained_with" gate:"exact"`
	RetainedWithout float64       `json:"retained_without" gate:"exact"`
	// HeapWithout/HeapWith are the demand-grown final heap sizes: the
	// paper's observation 6 ("the additional heap size needed to make
	// up for blacklisted pages ... was negligible, and not easily
	// measurable, since it is dominated by the heap expansion
	// increment").
	HeapWithout int `json:"heap_without" gate:"exact"`
	HeapWith    int `json:"heap_with" gate:"exact"`
}

// Overhead measures the end-to-end cost of blacklisting on a program-T
// run, the paper's footnote 3: "the total additional overhead
// introduced by blacklisting is usually less than 1%... version 2.5 of
// the collector spends approximately 0.2% of its time dealing with
// blacklisting related bookkeeping", and the hot-path allocation
// latency ("the stand-alone collector can still allocate and collect an
// 8 byte object in around 2 microseconds... on a SPARCStation 2").
//
// Both configurations run the same seed; the with-blacklist run is
// usually *faster* end to end because it retains less and therefore
// marks less, so the bookkeeping cost is also isolated via the marker's
// own counters.
func Overhead(opt OverheadOptions) (*BenchResult[OverheadOptions, OverheadRow], *stats.Table, error) {
	seed := opt.Seed
	profile := platform.SPARCDynamic(false)

	timeRun := func(bl bool) (time.Duration, float64, error) {
		start := time.Now()
		f, err := platform.RunCell(profile, bl, seed)
		return time.Since(start), f, err
	}
	dWithout, fWithout, err := timeRun(false)
	if err != nil {
		return nil, nil, err
	}
	dWith, fWith, err := timeRun(true)
	if err != nil {
		return nil, nil, err
	}

	// Hot-path allocation latency: 8-byte (2-word) objects, recycling
	// the heap via sweeps so the free lists stay warm.
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20,
		ReserveHeapBytes: 8 << 20,
		Blacklisting:     BlacklistDense,
		GCDivisor:        -1,
	})
	if err != nil {
		return nil, nil, err
	}
	const n = 2_000_000
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := w.Allocate(2, false); err != nil {
			return nil, nil, err
		}
	}
	allocNanos := float64(time.Since(start).Nanoseconds()) / n

	env, err := profile.Build(seed, true)
	if err != nil {
		return nil, nil, err
	}
	blStats := env.World.Blacklist.Stats()

	// Observation 6: start from a tiny heap and let demand grow it, so
	// the space cost of refusing blacklisted pages becomes visible (or,
	// as the paper found, fails to).
	demandHeap := func(bl bool) (int, error) {
		prof := profile
		prof.InitialHeap = 2 << 20
		env, err := prof.Build(seed, bl)
		if err != nil {
			return 0, err
		}
		if _, err := env.RunProgramT(); err != nil {
			return 0, err
		}
		return env.World.Heap.Stats().HeapBytes, nil
	}
	heapWithout, err := demandHeap(false)
	if err != nil {
		return nil, nil, err
	}
	heapWith, err := demandHeap(true)
	if err != nil {
		return nil, nil, err
	}

	r := OverheadRow{
		Profile:         profile.Name,
		RunWithout:      dWithout,
		RunWith:         dWith,
		OverheadPct:     100 * (dWith.Seconds() - dWithout.Seconds()) / dWithout.Seconds(),
		AllocNanos:      allocNanos,
		BlacklistAdds:   blStats.Adds,
		BlacklistLen:    env.World.Blacklist.Len(),
		RetainedWith:    fWith,
		RetainedWithout: fWithout,
		HeapWithout:     heapWithout,
		HeapWith:        heapWith,
	}
	tab := stats.NewTable("Footnote 3: blacklisting overhead and allocation latency",
		"Metric", "Value")
	tab.Add("program T, blacklisting off", fmt.Sprintf("%.2fs (%.1f%% retained)", dWithout.Seconds(), 100*fWithout))
	tab.Add("program T, blacklisting on", fmt.Sprintf("%.2fs (%.1f%% retained)", dWith.Seconds(), 100*fWith))
	tab.Add("end-to-end overhead", fmt.Sprintf("%+.1f%%", r.OverheadPct))
	tab.Add("8-byte allocation", fmt.Sprintf("%.0f ns/op", allocNanos))
	tab.Add("blacklist adds at startup", fmt.Sprint(blStats.Adds))
	tab.Add("pages blacklisted at startup", fmt.Sprint(r.BlacklistLen))
	tab.Add("demand-grown heap, no blacklist", fmt.Sprintf("%.1f MB", float64(heapWithout)/(1<<20)))
	tab.Add("demand-grown heap, blacklist", fmt.Sprintf("%.1f MB", float64(heapWith)/(1<<20)))
	tab.Add("space cost of blacklisted pages", fmt.Sprintf("%+.1f%%",
		100*(float64(heapWith)-float64(heapWithout))/float64(heapWithout)))
	return &BenchResult[OverheadOptions, OverheadRow]{Options: opt, Rows: []OverheadRow{r}}, tab, nil
}
