package repro

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/stats"
)

// PCRSweepOptions configures the appendix-B world-size sweep (E9).
type PCRSweepOptions struct {
	// OtherLiveMB are the Cedar world sizes, in MB of other live data
	// (default 1.5, 4, 8, 13).
	OtherLiveMB []float64 `json:"other_live_mb"`
	Seeds       int       `json:"seeds"`    // seeds per cell (default 2)
	Parallel    int       `json:"parallel"` // concurrent runs (default 8)
}

// PCRSweepRow is one world size's retention (E9).
type PCRSweepRow struct {
	OtherLiveMB    float64     `json:"other_live_mb" gate:"key"`
	NoBlacklisting stats.Range `json:"no_blacklisting" gate:"exact"`
	Blacklisting   stats.Range `json:"blacklisting" gate:"exact"`
}

// PCRSweep reproduces appendix B's PCR observation: "the experiments
// were run with very different sized Cedar address spaces, ranging from
// 1.5 to about 13 MB of other live data... Interestingly, the number of
// loaded packages had minimal effect on the amount of retained
// storage." Retention should be roughly invariant in the other-live-
// data size, because the false references come from PCR's own statics
// and thread stacks, not from the loaded packages.
func PCRSweep(opt PCRSweepOptions) (*BenchResult[PCRSweepOptions, PCRSweepRow], *stats.Table, error) {
	if len(opt.OtherLiveMB) == 0 {
		opt.OtherLiveMB = []float64{1.5, 4, 8, 13}
	}
	if opt.Seeds <= 0 {
		opt.Seeds = 2
	}
	if opt.Parallel <= 0 {
		opt.Parallel = 8
	}
	profiles := make([]Profile, len(opt.OtherLiveMB))
	for i, mb := range opt.OtherLiveMB {
		profiles[i] = platform.PCR(int(mb * (1 << 20)))
	}
	ranges, err := retentionRanges(profiles, opt.Seeds, opt.Parallel)
	if err != nil {
		return nil, nil, err
	}
	res := &BenchResult[PCRSweepOptions, PCRSweepRow]{Options: opt}
	tab := stats.NewTable("Appendix B: PCR retention vs Cedar world size",
		"Other live data", "No Blacklisting", "Blacklisting")
	for i, mb := range opt.OtherLiveMB {
		r := PCRSweepRow{OtherLiveMB: mb, NoBlacklisting: ranges[i][0], Blacklisting: ranges[i][1]}
		res.Rows = append(res.Rows, r)
		tab.AddF(fmt.Sprintf("%.1f MB", mb), r.NoBlacklisting.PctString(), r.Blacklisting.PctString())
	}
	return res, tab, nil
}
