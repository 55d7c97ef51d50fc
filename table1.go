package repro

import (
	"fmt"
	"sync"

	"repro/internal/platform"
	"repro/internal/stats"
)

// Table1Options configures the table-1 reproduction (experiment E1 in
// DESIGN.md).
type Table1Options struct {
	// Seeds is how many seeds each cell is run with (default 3); the
	// result is reported as a min-max range like the paper's.
	Seeds int `json:"seeds"`
	// Parallel bounds concurrent runs (default 8). Runs are in
	// independent worlds, so parallelism only affects wall time.
	Parallel int `json:"parallel"`
	// Profiles defaults to platform.Table1Profiles().
	Profiles []Profile `json:"-"`
}

// Table1Row is one row of the reproduced table: the fraction of
// program T's lists retained over the seeds, without and with
// blacklisting.
type Table1Row struct {
	Machine        string      `json:"machine" gate:"key"`
	Optimized      bool        `json:"optimized" gate:"key"`
	NoBlacklisting stats.Range `json:"no_blacklisting" gate:"exact"`
	Blacklisting   stats.Range `json:"blacklisting" gate:"exact"`
}

// Table1 reruns program T under every table-1 configuration and returns
// the reproduced rows plus a formatted table: "storage retention with
// and without blacklisting".
func Table1(opt Table1Options) (*BenchResult[Table1Options, Table1Row], *stats.Table, error) {
	if opt.Seeds <= 0 {
		opt.Seeds = 3
	}
	if opt.Parallel <= 0 {
		opt.Parallel = 8
	}
	profiles := opt.Profiles
	if profiles == nil {
		profiles = platform.Table1Profiles()
	}
	ranges, err := retentionRanges(profiles, opt.Seeds, opt.Parallel)
	if err != nil {
		return nil, nil, err
	}
	res := &BenchResult[Table1Options, Table1Row]{Options: opt}
	tab := stats.NewTable("Table 1: storage retention with and without blacklisting",
		"Machine", "Optimized?", "No Blacklisting", "Blacklisting")
	for i, p := range profiles {
		r := Table1Row{
			Machine:        p.Name,
			Optimized:      p.Optimized,
			NoBlacklisting: ranges[i][0],
			Blacklisting:   ranges[i][1],
		}
		res.Rows = append(res.Rows, r)
		optStr := "no"
		if p.Optimized {
			optStr = "yes"
		}
		if p.Name == "PCR" {
			optStr = "mixed"
		}
		tab.Add(p.Name, optStr, r.NoBlacklisting.PctString(), r.Blacklisting.PctString())
	}
	return res, tab, nil
}

// retentionRanges runs program T on every profile without and with
// blacklisting at seeds 1..seeds, at most parallel runs at a time, and
// returns each profile's retained fractions as [without, with] ranges.
// Each run fills its own slot, so a range does not depend on the order
// the runs finish in.
func retentionRanges(profiles []Profile, seeds, parallel int) ([][2]stats.Range, error) {
	fracs := make([][2][]float64, len(profiles))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	for i, p := range profiles {
		for b, bl := range []bool{false, true} {
			fracs[i][b] = make([]float64, seeds)
			for s := range seeds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					f, err := platform.RunCell(p, bl, uint64(s)+1)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("%s (blacklist=%v): %w", p.Name, bl, err)
						}
						mu.Unlock()
						return
					}
					fracs[i][b][s] = f
				}()
			}
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	ranges := make([][2]stats.Range, len(profiles))
	for i, f := range fracs {
		ranges[i] = [2]stats.Range{stats.NewRange(f[0]), stats.NewRange(f[1])}
	}
	return ranges, nil
}
