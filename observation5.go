package repro

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// Observation5Row is one seed's continued-execution run (E17).
type Observation5Row struct {
	Seed              uint64 `json:"seed" gate:"key"`
	RetainedInitially int    `json:"retained_initially" gate:"exact"` // lists still pinned right after program T
	RoundsToZero      int    `json:"rounds_to_zero" gate:"exact"`     // -1 if some lists never died
	StillPinned       int    `json:"still_pinned" gate:"exact"`       // lists pinned after the last round
}

// Observation5Options configures the experiment.
type Observation5Options struct {
	Rounds int `json:"rounds"` // continued-execution rounds (default 12)
	Seeds  int `json:"seeds"`  // seeds tried to find runs with residual retention (default 8)
}

// Observation5 reproduces the paper's observation 5: "it is likely that
// the references that remain even with blacklisting are not truly
// permanent, and instead originated from a portion of the stack where
// they would be eventually overwritten in a longer running program with
// more varied stack frames. Whenever we have managed to track down
// similar references, this has been the case."
//
// Program T runs with blacklisting on the SPARC(static) profile; runs
// that retain lists (mid-run register/stack residue) then continue with
// rounds of varied stack and register activity. The residual references
// are overwritten and the pinned lists die.
func Observation5(opt Observation5Options) (*BenchResult[Observation5Options, Observation5Row], *stats.Table, error) {
	if opt.Rounds == 0 {
		opt.Rounds = 12
	}
	if opt.Seeds == 0 {
		opt.Seeds = 8
	}
	res := &BenchResult[Observation5Options, Observation5Row]{Options: opt}
	for seed := uint64(1); seed <= uint64(opt.Seeds); seed++ {
		row, err := observation5Run(seed, opt.Rounds)
		if err != nil {
			return nil, nil, err
		}
		if row.RetainedInitially == 0 {
			continue // nothing pinned this run; the paper's 0% rows
		}
		res.Rows = append(res.Rows, *row)
	}
	tab := stats.NewTable("Observation 5: residual references die under continued execution",
		"Seed", "Lists pinned after T", "Rounds until all reclaimed")
	for _, r := range res.Rows {
		rounds := fmt.Sprint(r.RoundsToZero)
		if r.RoundsToZero < 0 {
			rounds = fmt.Sprintf("> %d (still pinned: %d)", opt.Rounds, r.StillPinned)
		}
		tab.AddF(r.Seed, r.RetainedInitially, rounds)
	}
	return res, tab, nil
}

func observation5Run(seed uint64, rounds int) (*Observation5Row, error) {
	profile := platform.SPARCStatic(false)
	env, err := profile.Build(seed, true)
	if err != nil {
		return nil, err
	}
	res, err := env.RunProgramT()
	if err != nil {
		return nil, err
	}
	out := &Observation5Row{
		Seed:              seed,
		RetainedInitially: res.RetainedLists,
		RoundsToZero:      -1,
		StillPinned:       res.RetainedLists,
	}
	if res.RetainedLists == 0 {
		out.RoundsToZero = 0
		return out, nil
	}

	// Continued execution: varied call activity that writes ordinary
	// values through the register windows and stack frames, exactly what
	// a longer-running program does to its residue.
	w, m := env.World, env.Machine
	rng := simrand.New(seed ^ 0xC0117111)
	remaining := res.RetainedLists
	for round := 0; round < rounds && remaining > 0; round++ {
		var churn func(depth int) error
		churn = func(depth int) error {
			if depth == 0 {
				return nil
			}
			return m.WithFrame(1+rng.Intn(24), func(f *Frame) error {
				for r := 0; r < 16; r++ {
					m.SetLocal(r, Word(rng.Uint32n(4096)))
				}
				for s := 0; s < f.Words(); s++ {
					f.Store(s, Word(rng.Uint32n(4096)))
				}
				if _, err := w.Allocate(2, false); err != nil {
					return err
				}
				return churn(depth - 1)
			})
		}
		if err := churn(8 + rng.Intn(24)); err != nil {
			return nil, err
		}
		w.Collect()
		remaining -= len(w.DrainReclaimed())
		out.StillPinned = remaining
		if remaining == 0 {
			out.RoundsToZero = round + 1
		}
	}
	return out, nil
}
