// Package workload implements the client programs the paper measures:
// program T from appendix A, the recursive list-reversal benchmark of
// section 3.1, and the data structures of section 4 (grids with
// embedded versus separate links, balanced binary trees, queues and
// lazy lists).
//
// Every workload runs against a core.World, allocating from the
// simulated collected heap and, where relevant, mirroring its call
// structure on the simulated machine stack so that the stack-hygiene
// effects the paper describes actually occur.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
)

// ProgramTParams configures program T (appendix A): "Allocate a cycle
// of n 4 byte objects... 200 circular linked lists containing 100
// Kbytes each", then drop every reference and ask what fraction of the
// lists fails to be collected.
type ProgramTParams struct {
	// NLists is N in the paper (200; the OS/2 run used 100).
	NLists int
	// NodesPerList is S in the paper (25000 nodes of 4 bytes each; the
	// PCR variant used 12500 8-byte cells).
	NodesPerList int
	// NodeWords is the node size in words (1 for the C runs, 2 for the
	// PCR variant).
	NodeWords int
	// StaticArrayBase places the program's static pointer array a[N]
	// (it is scanned as a root until cleared, exactly like the C
	// global). 0 picks a default below the heap.
	StaticArrayBase mem.Addr
	// MidRun, if non-nil, runs after the big lists have been allocated
	// and dropped, before the collections that measure retention. The
	// paper's platforms acquire root noise throughout a run ("register
	// values left over from kernel calls and/or context switches",
	// concurrently running clients); this is where profiles inject it.
	// It runs inside the program's World.Run, so it may call no World
	// method that takes the world lock.
	MidRun func() error
}

func (p *ProgramTParams) withDefaults() ProgramTParams {
	out := *p
	if out.NLists == 0 {
		out.NLists = 200
	}
	if out.NodesPerList == 0 {
		out.NodesPerList = 25000
	}
	if out.NodeWords == 0 {
		out.NodeWords = 1
	}
	if out.StaticArrayBase == 0 {
		out.StaticArrayBase = 0x300000
	}
	return out
}

// ListBytes returns the payload size of one list.
func (p ProgramTParams) ListBytes() int { return p.NodesPerList * p.NodeWords * mem.WordBytes }

// ProgramTResult reports one program-T run.
type ProgramTResult struct {
	Params        ProgramTParams
	RetainedLists int // lists never reclaimed
	TotalLists    int
	Collections   int // collections needed until no further lists died
	HeapBytes     int
}

// RetainedFraction returns the fraction of lists retained, the paper's
// table-1 metric.
func (r ProgramTResult) RetainedFraction() float64 {
	return float64(r.RetainedLists) / float64(r.TotalLists)
}

func (r ProgramTResult) String() string {
	return fmt.Sprintf("programT: %d/%d lists retained (%.1f%%)",
		r.RetainedLists, r.TotalLists, 100*r.RetainedFraction())
}

// allocCycle builds one circular list of n nodes of nodeWords words and
// returns a pointer into it, mirroring the paper's alloc_cycle. The
// local variables (first, prev, the loop counter) live in a simulated
// stack frame, so their values persist as dead-stack garbage after
// return — one of the paper's observed sources of retention.
func allocCycle(r *core.Region, m *machine.Machine, n, nodeWords int) (mem.Addr, error) {
	var first mem.Addr
	body := func(f *machine.Frame) error {
		var prev mem.Addr
		for i := 0; i < n; i++ {
			node, err := r.Allocate(nodeWords, false)
			if err != nil {
				return err
			}
			if prev == 0 {
				first = node
				if f != nil {
					f.Store(0, mem.Word(first))
				}
			} else if err := r.Store(prev, mem.Word(node)); err != nil {
				return err
			}
			prev = node
			if f != nil {
				f.Store(1, mem.Word(prev))
			}
		}
		// Close the cycle.
		return r.Store(prev, mem.Word(first))
	}
	if m == nil {
		return first, body(nil)
	}
	return first, m.WithFrame(3, body)
}

// RunProgramT executes program T in the world:
//
//	test(S);            // allocate and drop N big lists
//	GC_gcollect();
//	test(2);            // "simulate further program execution to
//	GC_gcollect();      //  clear stack garbage; not terribly effective"
//
// and then, following the paper's PCR methodology, collects repeatedly
// "until no more lists were finalized as the result of further
// invocations", using the finalisation queue to count reclaimed lists
// exactly. m may be nil to run without a simulated mutator stack. Like
// the paper's single-threaded C program, whose GC_malloc takes no lock,
// it holds the world lock once, for the whole run (World.Run).
func RunProgramT(w *core.World, m *machine.Machine, params ProgramTParams) (res *ProgramTResult, err error) {
	err = w.Run(func(r *core.Region) error { res, err = runProgramT(w, r, m, params); return err })
	return res, err
}

func runProgramT(w *core.World, r *core.Region, m *machine.Machine, params ProgramTParams) (*ProgramTResult, error) {
	p := params.withDefaults()
	aBytes := p.NLists * mem.WordBytes
	aSeg, err := w.Space.MapNew("programT.a", mem.KindData, p.StaticArrayBase, aBytes, aBytes)
	if err != nil {
		return nil, err
	}

	test := func(n int) error {
		run := func(f *machine.Frame) error {
			for i := 0; i < p.NLists; i++ {
				head, err := allocCycle(r, m, n, p.NodeWords)
				if err != nil {
					return err
				}
				if err := aSeg.Store(p.StaticArrayBase+mem.Addr(i*mem.WordBytes), mem.Word(head)); err != nil {
					return err
				}
				if n == p.NodesPerList {
					r.RegisterFinalizable(head)
				}
				if f != nil {
					f.Store(0, mem.Word(head)) // register copy spilled to frame
				}
			}
			for i := 0; i < p.NLists; i++ {
				if err := aSeg.Store(p.StaticArrayBase+mem.Addr(i*mem.WordBytes), 0); err != nil {
					return err
				}
			}
			return nil
		}
		if m == nil {
			return run(nil)
		}
		return m.WithFrame(2, run)
	}

	if err := test(p.NodesPerList); err != nil {
		return nil, err
	}
	if p.MidRun != nil {
		if err := p.MidRun(); err != nil {
			return nil, err
		}
	}
	r.Collect()
	if err := test(2); err != nil {
		return nil, err
	}
	r.Collect()

	reclaimed := len(r.DrainReclaimed())
	collections := 2
	// "The garbage collector was manually invoked until no more lists
	// were finalized as the result of further invocations. (Once was
	// usually enough.)"
	for {
		r.Collect()
		collections++
		more := len(r.DrainReclaimed())
		reclaimed += more
		if more == 0 || collections > 20 {
			break
		}
	}

	return &ProgramTResult{
		Params:        p,
		RetainedLists: p.NLists - reclaimed,
		TotalLists:    p.NLists,
		Collections:   collections,
		HeapBytes:     w.Heap.Stats().HeapBytes,
	}, nil
}
