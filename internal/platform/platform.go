// Package platform reconstructs the five process-image environments of
// the paper's table 1: statically and dynamically linked SunOS/SPARC,
// SGI/IRIX, OS/2 on a 486, and PCR running inside a Cedar world.
//
// A profile is a parameterised description of everything in a process
// image that can produce false references to program T's heap:
//
//   - static data containing "seemingly random integer values"
//     (the SunOS static libc's base-conversion tables, >35 KB);
//   - packed, unaligned string constants whose boundaries read as
//     big-endian words of the form 0x00XXYYZZ — addresses between
//     roughly 2.1 MB and 8.4 MB (appendix B, SPARC), versus the SGI
//     compiler's word-aligned strings, which produce none;
//   - register windows polluted by "kernel calls and/or context
//     switches", both long-lived (blacklistable) and mid-run;
//   - uncleared thread stacks and statics that mutate mid-run (PCR),
//     which defeat the startup blacklist and account for the residual
//     leakage in the blacklisting column;
//   - other live data sharing the heap (the Cedar world's 1.5–13 MB).
//
// The retention percentages in the reproduction are emergent: a profile
// fixes only the pollution inputs, described above from the paper's own
// appendix B, and the collector does the rest.
package platform

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/workload"
)

// NoiseSpec describes register pollution: count values uniform in
// [Lo, Hi).
type NoiseSpec struct {
	Count  int
	Lo, Hi uint32
}

// ThreadStackSpec describes one uncleared thread stack scanned as a
// root (PCR scans all thread stacks; "the PCR collector does not
// attempt to clear thread stacks").
type ThreadStackSpec struct {
	Bytes   int
	Density float64 // fraction of words holding garbage values
	Lo, Hi  uint32
}

// Profile describes one table-1 environment.
type Profile struct {
	Name      string
	Optimized bool

	// Heap geometry.
	HeapBase    mem.Addr
	HeapReserve int
	InitialHeap int
	GCDivisor   int

	// Static data image.
	StaticArrayBase mem.Addr // program T's a[] array
	StaticBase      mem.Addr
	Tables          []TableSpec
	StringBytes     int
	StringsAligned  bool

	// Machine.
	RegisterWindows bool
	FrameSlop       int
	StackBytes      int
	BuildRegNoise   NoiseSpec // present from startup: blacklistable
	MidRegNoise     NoiseSpec // appears mid-run: evades the blacklist

	// PCR extras.
	ThreadStacks    []ThreadStackSpec
	MidThreadPokes  int // mid-run stale values written into thread stacks
	MutatingStatics int // statics rewritten mid-run with heap-derived values
	OtherLiveBytes  int // live Cedar data sharing the heap

	// Program T parameters.
	NLists       int
	NodesPerList int
	NodeWords    int

	// LazySweep defers sweep work out of the collection pause (see
	// core.Config.LazySweep). Reclamation totals are unchanged, so
	// table-1 retention numbers are identical either way; the knob
	// exists for pause-time measurements over profile workloads.
	LazySweep bool
}

// ListBytes returns the payload bytes of one program-T list.
func (p Profile) ListBytes() int { return p.NodesPerList * p.NodeWords * mem.WordBytes }

// Env is a built environment ready to run program T.
type Env struct {
	Profile Profile
	World   *core.World
	Machine *machine.Machine

	statics      *mem.Segment
	threadStacks []*mem.Segment
	rng          *simrand.Rand
}

// Build constructs the world for a profile: address space, static data
// pollution, thread stacks, machine, other live data — and runs the
// startup collection the paper's blacklisting scheme requires ("at
// least one (normally very fast) garbage collection occurring just
// after system start up before any allocation has taken place").
//
// The static image is generated once per distinct profile in a process
// and copied into each environment's own segment, so a write to one
// environment's statics reaches no other. Everything else is per seed.
func (p Profile) Build(seed uint64, blacklisting bool) (*Env, error) {
	mixed := seed
	if p.Optimized {
		// Optimized builds see different (but identically distributed)
		// run-to-run noise: the paper's optimized rows differ from the
		// unoptimized ones only within that noise.
		mixed ^= 0xA11A0C8ED5EED
	}
	rng := simrand.New(mixed)
	mode := core.BlacklistOff
	if blacklisting {
		mode = core.BlacklistDense
	}
	w, err := core.NewWorld(nil, core.Config{
		HeapBase:         p.HeapBase,
		InitialHeapBytes: p.InitialHeap,
		ReserveHeapBytes: p.HeapReserve,
		Pointer:          mark.PointerInterior, // program T forces interior pointers
		Blacklisting:     mode,
		GCDivisor:        p.GCDivisor,
		LazySweep:        p.LazySweep,
		AllocatorResidue: true,
		// "In the PCedar environment, there are enough allocations of
		// small objects known to be pointer-free that blacklisted pages
		// can still be allocated" — harmless to allow everywhere.
		AllowAtomicOnBlacklisted: true,
	})
	if err != nil {
		return nil, fmt.Errorf("platform %s: %w", p.Name, err)
	}
	env := &Env{Profile: p, World: w, rng: rng}

	// Static data image: a copy of the profile's, generated on first use.
	staticBytes := p.StringBytes
	for _, t := range p.Tables {
		staticBytes += t.Bytes
	}
	staticBytes = int(mem.AlignWordUp(mem.Addr(staticBytes + 64)))
	if staticBytes > 0 {
		seg, err := w.Space.MapNew("static", mem.KindData, p.StaticBase, staticBytes, staticBytes)
		if err != nil {
			return nil, err
		}
		key := staticKey{p.Name, fmt.Sprint(p.Tables), p.StringBytes, staticBytes, p.StringsAligned, p.StaticBase}
		if img, ok := staticImages.Load(key); ok {
			copy(seg.Words(), img.([]mem.Word))
		} else {
			p.fillStatic(seg)
			staticImages.Store(key, slices.Clone(seg.Words()))
		}
		env.statics = seg
	}

	// Uncleared thread stacks (roots).
	for i, ts := range p.ThreadStacks {
		base := mem.Addr(0xE0000000) + mem.Addr(i*0x20000)
		seg, err := w.Space.MapNew(fmt.Sprintf("thread%d", i), mem.KindStack, base, ts.Bytes, ts.Bytes)
		if err != nil {
			return nil, err
		}
		seg.SetRoot(true)
		fillStaleStack(seg, ts.Density, ts.Lo, ts.Hi, rng.Split())
		env.threadStacks = append(env.threadStacks, seg)
	}

	// The mutator machine.
	stackBytes := p.StackBytes
	if stackBytes == 0 {
		stackBytes = 1 << 20
	}
	m, err := machine.New(w.Space, machine.Config{
		StackTop:        0xF0000000,
		StackBytes:      stackBytes,
		FrameSlopWords:  p.FrameSlop,
		RegisterWindows: p.RegisterWindows,
		Seed:            rng.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	w.SetMutator(m)
	env.Machine = m
	if n := p.BuildRegNoise; n.Count > 0 {
		m.PolluteRegisters(nil, n.Count, n.Lo, n.Hi)
	}

	// Other live data (the Cedar world): a chain of composite objects
	// holding pointers to each other and small integers, rooted in a
	// dedicated static slot.
	if p.OtherLiveBytes > 0 {
		if err := env.buildOtherLive(); err != nil {
			return nil, err
		}
	}

	// Startup collection: blacklists every long-lived false reference
	// present in the image before any program-T allocation.
	w.Collect()
	return env, nil
}

// staticImages holds each distinct static image (staticKey → []mem.Word),
// generated once per process by fillStatic. Its slices are only read.
var staticImages sync.Map

// staticKey is every input that shapes a static image.
type staticKey struct {
	name, tables       string
	stringBytes, bytes int
	aligned            bool
	base               mem.Addr
}

// fillStatic writes p's static image into seg: integer tables, then
// string constants. The image is a property of the platform's compiler
// and libraries, NOT of the run: the paper's OS/2 results were
// "completely reproducible ... though probably not across compiler
// versions". Its stream derives from the profile identity alone, so
// run-to-run ranges come only from register and kernel noise, as in the
// paper. The optimization level does not change the C library's data,
// so optimized and unoptimized builds share the image.
func (p Profile) fillStatic(seg *mem.Segment) {
	staticSeed := uint64(0x57A71C)
	for _, c := range p.Name {
		staticSeed = staticSeed*131 + uint64(c)
	}
	staticRng := simrand.New(staticSeed)
	off := p.StaticBase
	for _, t := range p.Tables {
		off = fillIntTables(seg, off, t, staticRng.Split())
	}
	fillStrings(seg, off, p.StringBytes, p.StringsAligned, staticRng.Split())
}

// buildOtherLive allocates the profile's other live data, in one
// region: the world lock is taken once for the chain, not per call.
func (e *Env) buildOtherLive() error {
	const objWords = 64
	n := e.Profile.OtherLiveBytes / (objWords * mem.WordBytes)
	root, err := e.World.Space.MapNew("otherlive.root", mem.KindData, 0x3800, 64, 64)
	if err != nil {
		return err
	}
	var prev mem.Addr
	err = e.World.Run(func(r *core.Region) error {
		for i := 0; i < n; i++ {
			obj, err := r.Allocate(objWords, false)
			if err != nil {
				return err
			}
			// Interior pointers to the previous object plus small-integer
			// payload, like ordinary live program data.
			if prev != 0 {
				r.Store(obj, mem.Word(prev))
				r.Store(obj+4, mem.Word(prev+8*mem.WordBytes))
			}
			for j := 2; j < 6; j++ {
				r.Store(obj+mem.Addr(4*j), mem.Word(e.rng.Uint32n(4096)))
			}
			prev = obj
		}
		return nil
	})
	if err != nil {
		return err
	}
	return root.Store(0x3800, mem.Word(prev))
}

// midRun injects the noise that arrives during a run and therefore
// evades the startup blacklist: fresh register garbage from kernel
// calls, allocator garbage on other threads' stacks, and (PCR's
// appendix-B leak source #1) statics that changed after startup.
func (e *Env) midRun() error {
	if n := e.Profile.MidRegNoise; n.Count > 0 {
		e.Machine.PolluteRegisters(nil, n.Count, n.Lo, n.Hi)
	}
	heapLo := uint32(e.World.Heap.Base())
	heapHi := uint32(e.World.Heap.Limit())
	for i := 0; i < e.Profile.MidThreadPokes && len(e.threadStacks) > 0; i++ {
		seg := e.threadStacks[e.rng.Intn(len(e.threadStacks))]
		slot := seg.Base() + mem.Addr(e.rng.Intn(seg.Size()/4)*4)
		if err := seg.Store(slot, mem.Word(e.rng.Range(heapLo, heapHi))); err != nil {
			return err
		}
	}
	// "In several runs the only variables responsible for such leakage
	// basically contained the heap size, but were maintained by parts
	// of PCR outside the collector."
	for i := 0; i < e.Profile.MutatingStatics && e.statics != nil; i++ {
		slot := e.statics.Base() + mem.Addr(e.statics.Size()) - mem.Addr(4*(i+1))
		v := heapLo + e.rng.Uint32n(heapHi-heapLo)
		if err := e.statics.Store(slot, mem.Word(v)); err != nil {
			return err
		}
	}
	return nil
}

// RunProgramT executes the profile's program-T variant in the built
// environment and returns the retention result.
func (e *Env) RunProgramT() (*workload.ProgramTResult, error) {
	return workload.RunProgramT(e.World, e.Machine, workload.ProgramTParams{
		NLists:          e.Profile.NLists,
		NodesPerList:    e.Profile.NodesPerList,
		NodeWords:       e.Profile.NodeWords,
		StaticArrayBase: e.Profile.StaticArrayBase,
		MidRun:          e.midRun,
	})
}

// RunCell builds the environment and runs program T once, returning the
// retained fraction — one seed's contribution to one table-1 cell.
func RunCell(p Profile, blacklisting bool, seed uint64) (float64, error) {
	env, err := p.Build(seed, blacklisting)
	if err != nil {
		return 0, err
	}
	res, err := env.RunProgramT()
	if err != nil {
		return 0, err
	}
	return res.RetainedFraction(), nil
}
