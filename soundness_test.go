package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/simrand"
)

// The soundness harness drives random mutator behaviour against every
// collector mode and checks the one property a conservative collector
// must never violate: an object reachable in the exact (shadow) object
// graph is never reclaimed. (The converse — unreachable objects may be
// retained — is precisely the paper's subject.)

type shadowKind int

const (
	shadowCons   shadowKind = iota // 4 fields, all traced
	shadowAtomic                   // 2 fields, never traced
	shadowTyped                    // 4 fields, only 0 and 2 traced
)

type shadowObj struct {
	kind   shadowKind
	fields [4]Addr // 0 = nil
}

type soundnessHarness struct {
	t      *testing.T
	w      *World
	rng    *simrand.Rand
	objs   map[Addr]*shadowObj
	order  []Addr // deterministic iteration order (allocation order)
	roots  []Addr // mirrored into the root segment
	seg    *Segment
	layout DescID
}

func newSoundnessHarness(t *testing.T, cfg Config, seed uint64) *soundnessHarness {
	t.Helper()
	cfg.InitialHeapBytes = 256 * 1024
	cfg.ReserveHeapBytes = 32 << 20
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.Space.MapNew("roots", KindData, 0x2000, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := w.RegisterLayout([]bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	return &soundnessHarness{
		t:      t,
		w:      w,
		rng:    simrand.New(seed),
		objs:   map[Addr]*shadowObj{},
		seg:    seg,
		layout: layout,
	}
}

func (h *soundnessHarness) alloc() {
	var p Addr
	var err error
	var kind shadowKind
	switch h.rng.Intn(3) {
	case 0:
		kind = shadowCons
		p, err = h.w.Allocate(4, false)
	case 1:
		kind = shadowAtomic
		p, err = h.w.Allocate(2, true)
	default:
		kind = shadowTyped
		p, err = h.w.AllocateTyped(h.layout)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	h.objs[p] = &shadowObj{kind: kind}
	h.order = append(h.order, p)
	// Fresh objects start rooted, or they could be collected before
	// they are linked anywhere.
	h.roots = append(h.roots, p)
	h.syncRoots()
}

// tracedFields returns which field indices are pointer-traced for kind.
func tracedFields(kind shadowKind) []int {
	switch kind {
	case shadowCons:
		return []int{0, 1, 2, 3}
	case shadowTyped:
		return []int{0, 2}
	default:
		return nil
	}
}

func (h *soundnessHarness) fieldCount(kind shadowKind) int {
	if kind == shadowAtomic {
		return 2
	}
	return 4
}

func (h *soundnessHarness) randomObj() (Addr, *shadowObj) {
	if len(h.order) == 0 {
		return 0, nil
	}
	p := h.order[h.rng.Intn(len(h.order))]
	return p, h.objs[p]
}

func (h *soundnessHarness) link() {
	src, so := h.randomObj()
	dst, _ := h.randomObj()
	if so == nil || dst == 0 {
		return
	}
	f := h.rng.Intn(h.fieldCount(so.kind))
	if err := h.w.Store(src+Addr(4*f), Word(dst)); err != nil {
		h.t.Fatal(err)
	}
	// Shadow tracks the edge only if the collector is entitled to see
	// it: atomic contents and typed data fields retain nothing.
	traced := false
	for _, tf := range tracedFields(so.kind) {
		if tf == f {
			traced = true
		}
	}
	if traced {
		so.fields[f] = dst
	} else {
		so.fields[f] = 0
	}
}

func (h *soundnessHarness) unroot() {
	if len(h.roots) == 0 {
		return
	}
	i := h.rng.Intn(len(h.roots))
	h.roots = append(h.roots[:i], h.roots[i+1:]...)
	h.syncRoots()
}

func (h *soundnessHarness) syncRoots() {
	for i := 0; i < 256; i++ {
		var v Word
		if i < len(h.roots) {
			v = Word(h.roots[i])
		}
		if err := h.seg.Store(0x2000+Addr(4*i), v); err != nil {
			h.t.Fatal(err)
		}
	}
	if len(h.roots) > 256 {
		h.t.Fatal("root overflow")
	}
}

// reachable computes exact shadow reachability.
func (h *soundnessHarness) reachable() map[Addr]bool {
	seen := map[Addr]bool{}
	stack := append([]Addr(nil), h.roots...)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p == 0 || seen[p] {
			continue
		}
		seen[p] = true
		if o := h.objs[p]; o != nil {
			for _, f := range tracedFields(o.kind) {
				if o.fields[f] != 0 {
					stack = append(stack, o.fields[f])
				}
			}
		}
	}
	return seen
}

func (h *soundnessHarness) step() {
	switch op := h.rng.Intn(12); {
	case op < 4:
		h.alloc()
	case op < 8:
		h.link()
	case op < 9 && len(h.roots) > 2:
		h.unroot()
	case op < 10:
		h.w.Collect()
	case op < 11 && h.w.Config().Generational:
		h.w.CollectMinor()
	case op < 11 && h.w.Config().ConcurrentMark:
		// A concurrent cycle stepped by hand between the harness's own
		// operations (no goroutine, so the run replays).
		if !h.w.ConcurrentActive() {
			h.w.StartConcurrentCycle()
		} else {
			h.w.ConcurrentStep(8) // the step that drains runs the finale
		}
	}
	// Prune after EVERY step: any allocation may trigger a collection
	// internally, and the shadow must drop reclaimed objects before the
	// mutator can (illegally) resurrect a stale address via link().
	h.prune()
}

// prune removes shadow entries for objects the collector reclaimed —
// legal only when they were shadow-unreachable.
func (h *soundnessHarness) prune() {
	reach := h.reachable()
	kept := h.order[:0]
	for _, p := range h.order {
		if !h.w.Heap.IsAllocated(p) {
			if reach[p] {
				h.t.Fatalf("SOUNDNESS: reachable object %#x reclaimed", uint32(p))
			}
			delete(h.objs, p)
			continue
		}
		kept = append(kept, p)
	}
	h.order = kept
}

func (h *soundnessHarness) finalCheck() {
	// An in-flight concurrent cycle retains its snapshot's liveness
	// (floating garbage), and Collect would merely land it — finish it,
	// then run a genuinely fresh full collection so the exactness
	// assertion below is fair.
	h.w.FinishConcurrentCycle()
	h.w.Collect()
	reach := h.reachable()
	for p := range reach {
		if p == 0 {
			continue
		}
		if !h.w.Heap.IsAllocated(p) {
			h.t.Fatalf("SOUNDNESS: reachable object %#x missing after final collect", uint32(p))
		}
	}
	// With a noise-free root segment and base pointers, retention is
	// exact for non-generational modes after a full collect: everything
	// still allocated among our objects must be reachable.
	for p := range h.objs {
		if h.w.Heap.IsAllocated(p) && !reach[p] {
			h.t.Fatalf("unreachable object %#x retained after full collect "+
				"(no false roots exist in this harness)", uint32(p))
		}
	}
}

func TestSoundnessAcrossModes(t *testing.T) {
	// Every collector mode (concurrent ones stepped by the harness, with
	// no trigger of their own), then rows that vary something else. Four
	// modes' rows keep the names they had before the mode table.
	type row struct {
		name string
		cfg  Config
	}
	old := map[string]string{"full": "default", "gen": "generational", "conc": "conc-stepped", "conc-lazy": "conc-stepped-lazy"}
	var modes []row
	for _, m := range core.Modes {
		cfg := m.Apply(Config{MinorDivisor: 4})
		if m.ConcurrentMark {
			cfg.GCDivisor, cfg.MarkQuantum = -1, 8
		}
		name := m.Name
		if n, ok := old[name]; ok {
			name = n
		}
		modes = append(modes, row{name, cfg})
	}
	modes = append(modes, []row{
		{"blacklist", Config{Blacklisting: BlacklistDense}},
		{"interior", Config{Pointer: PointerInterior, Blacklisting: BlacklistDense}},
		{"lifo-frag", Config{FreeBlocks: LIFO}},
		{"skip-boundary", Config{SkipPageBoundarySlot: true}},
		{"hashed", Config{Blacklisting: BlacklistHashed}},
		{"gen-hashed", Config{Generational: true, MinorDivisor: 4, Blacklisting: BlacklistHashed}},
	}...)
	for _, mode := range modes {
		mode := mode
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				h := newSoundnessHarness(t, mode.cfg, seed)
				for i := 0; i < 4000; i++ {
					h.step()
					if len(h.roots) > 200 {
						h.unroot()
					}
				}
				h.finalCheck()
			})
		}
	}
}
