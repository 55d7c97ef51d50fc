package core

// Mode is one collector mode: a combination of the three switches that
// select how a cycle runs. Every battery and differential that loops
// over collector modes iterates Modes (DESIGN.md §3).
type Mode struct {
	Name                                    string
	ConcurrentMark, Generational, LazySweep bool
}

// Modes lists all six modes: stop-the-world marking, generational or
// not, or concurrent marking, which is never generational (NewWorld
// rejects the pair); each with an eager or a lazy sweep.
var Modes = []Mode{
	{"full", false, false, false}, {"lazy", false, false, true},
	{"gen", false, true, false}, {"gen-lazy", false, true, true},
	{"conc", true, false, false}, {"conc-lazy", true, false, true},
}

// Apply returns c in mode m. A generational mode runs a minor cycle at
// every sixth of the heap allocated and a full one every third cycle,
// unless c sets MinorDivisor or FullEvery itself.
func (m Mode) Apply(c Config) Config {
	c.ConcurrentMark, c.Generational, c.LazySweep = m.ConcurrentMark, m.Generational, m.LazySweep
	if m.Generational && c.MinorDivisor == 0 {
		c.MinorDivisor = 6
	}
	if m.Generational && c.FullEvery == 0 {
		c.FullEvery = 3
	}
	return c
}
