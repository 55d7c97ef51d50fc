package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// workloadNames lists the five workloads in the order they are run and
// reported. BENCHMARK.json carries the one-line reason for each; the
// README has the longer one.
var workloadNames = []string{"serve_churn", "serve_tenants", "live_graph_stw", "live_graph_conc", "program_t"}

const (
	allocsPerRequest = 32
	graphNodes       = 16_384
	scratchSlots     = allocsPerRequest
)

var (
	// requestSizes are the object sizes, in words, a request cycles
	// through; nodeSizes those of the preloaded graph.
	requestSizes = [4]int{2, 4, 8, 16}
	nodeSizes    = [3]int{4, 8, 16}
)

// meanBytes is the mean object size of a size cycle, in bytes.
func meanBytes(words []int) int {
	sum := 0
	for _, w := range words {
		sum += w
	}
	return sum * mem.WordBytes / len(words)
}

// tapeSpec returns a fresh copy of the named tape workload's spec, or
// nil (program_t is not a tape workload).
func tapeSpec(name string) *spec {
	graphLive := graphNodes*meanBytes(nodeSizes[:]) + scratchSlots*meanBytes(requestSizes[:])
	switch name {
	case "serve_churn":
		return &spec{
			name:        name,
			config:      core.Config{InitialHeapBytes: 1 << 20, MarkWorkers: 1},
			requests:    3_000_000,
			slots:       4096,
			nominalLive: 4096 * meanBytes(requestSizes[:]),
			build:       buildServe,
		}
	case "serve_tenants":
		return &spec{
			name:        name,
			config:      core.Config{InitialHeapBytes: 512 << 10, LineAlloc: true, LazySweep: true},
			requests:    300_000,
			slots:       256,
			tenants:     16,
			nominalLive: 16 * 256 * meanBytes(requestSizes[:]),
			build:       buildServe,
		}
	case "live_graph_stw":
		return &spec{
			name:        name,
			config:      core.Config{InitialHeapBytes: 256 << 10, ReserveHeapBytes: 16 << 20, ExpandIncrement: 32 << 10, MarkWorkers: 1},
			requests:    16_000_000 / allocsPerRequest,
			nodes:       graphNodes,
			nominalLive: graphLive,
			build:       buildGraph,
		}
	case "live_graph_conc":
		return &spec{
			name: name,
			// GCDivisor 16: at the default, a heap this full runs out
			// before the trigger fires and every cycle falls back to a
			// stop-the-world collection on the exhaustion path.
			config: core.Config{
				InitialHeapBytes: 768 << 10, ReserveHeapBytes: 768 << 10, MarkWorkers: 1,
				ConcurrentMark: true, ConcMarkWorkers: 2, ConcurrentSweep: true,
				MarkQuantum: 4096, GCDivisor: 16,
			},
			requests:      7_000_000 / allocsPerRequest,
			nodes:         graphNodes,
			nominalLive:   graphLive,
			minConcurrent: 0.9,
			build:         buildGraph,
		}
	}
	return nil
}

func newTape(cfg core.Config, rootWords int) (*tape, error) {
	w, err := core.NewWorld(nil, cfg)
	if err != nil {
		return nil, err
	}
	bytes := int(mem.AlignPageUp(mem.Addr(rootWords * mem.WordBytes)))
	roots, err := w.Space.MapNew("roots", mem.KindData, rootsBase, bytes, bytes)
	if err != nil {
		return nil, err
	}
	return &tape{w: w, roots: roots}, nil
}

// An owner is one handle with its ring of root slots.
type owner struct {
	m      *core.Mutator
	base   mem.Addr
	slots  int
	cursor int
}

// serveRequest is a request of the two serve workloads: 32 rooted
// allocations into the owner's rotating root slots, every fourth
// linked to the one before it, then with probability ½ one root slot
// cleared.
func serveRequest(wk *worker, o *owner, tr *tracer) {
	var prev mem.Addr
	for i := 0; i < allocsPerRequest; i++ {
		slot := o.base + mem.Addr(o.cursor*mem.WordBytes)
		if o.cursor++; o.cursor == o.slots {
			o.cursor = 0
		}
		p := wk.alloc(o.m, slot, requestSizes[i&3], tr)
		if i&3 == 3 && p != 0 && prev != 0 {
			wk.store(o.m, p, mem.Word(prev), spStore, tr)
		}
		prev = p
	}
	if wk.rng.Bool(0.5) {
		slot := o.base + mem.Addr(wk.rng.Intn(o.slots)*mem.WordBytes)
		wk.store(o.m, slot, 0, spRootClear, tr)
	}
}

// buildServe builds serve_churn (no tenants: one handle, one worker)
// and serve_tenants (two workers, each round-robining half the
// tenants one request at a time).
func buildServe(sp *spec, cfg core.Config, seed uint64) (*tape, error) {
	nOwners, nWorkers := 1, 1
	if sp.tenants > 0 {
		nOwners, nWorkers = sp.tenants, 2
	}
	tp, err := newTape(cfg, nOwners*sp.slots)
	if err != nil {
		return nil, err
	}
	owners := make([]owner, nOwners)
	for i := range owners {
		var m *core.Mutator
		if sp.tenants > 0 {
			// 4× the tenant's worst-case live bytes (every slot holding
			// the largest object).
			budget := uint64(4 * sp.slots * requestSizes[len(requestSizes)-1] * mem.WordBytes)
			t := tp.w.NewTenant(core.TenantConfig{BudgetBytes: budget, Policy: core.TenantCollectFirst})
			tp.tenants = append(tp.tenants, t)
			m = t.NewMutator()
		} else {
			m = tp.w.NewMutator()
		}
		tp.muts = append(tp.muts, m)
		owners[i] = owner{m: m, base: rootsBase + mem.Addr(i*sp.slots*mem.WordBytes), slots: sp.slots}
	}
	for i := 0; i < nWorkers; i++ {
		wk := newWorker(tp.roots, seed+1+uint64(i))
		mine := owners[i*nOwners/nWorkers : (i+1)*nOwners/nWorkers]
		next := 0
		wk.request = func(tr *tracer) {
			serveRequest(wk, &mine[next], tr)
			if next++; next == len(mine) {
				next = 0
			}
		}
		tp.workers = append(tp.workers, wk)
	}
	tp.reach = func() error {
		interior := tp.w.Config().Pointer == mark.PointerInterior
		for i, v := range tp.roots.Words() {
			if v == 0 {
				continue
			}
			if base, ok := tp.w.Heap.FindObject(mem.Addr(v), interior); !ok || base != mem.Addr(v) {
				return fmt.Errorf("root slot %d holds %#x, which is not an allocated object", i, uint32(v))
			}
		}
		return nil
	}
	return tp, nil
}

// buildGraph preloads the live_graph_* world: a chain of nodes, node i
// pointing at node i-1 in word 0 and at a random earlier node in word
// 1, the last node rooted. Root slots 0 and 1 alternate as the head so
// that the newest node is rooted before the previous head is dropped;
// slots 2.. are the requests' scratch slots.
func buildGraph(sp *spec, cfg core.Config, seed uint64) (*tape, error) {
	tp, err := newTape(cfg, 2+scratchSlots)
	if err != nil {
		return nil, err
	}
	m := tp.w.NewMutator()
	tp.muts = []*core.Mutator{m}
	rng := simrand.New(seed)
	nodes := make([]mem.Addr, sp.nodes)
	head := func(i int) mem.Addr { return rootsBase + mem.Addr((i&1)*mem.WordBytes) }
	for i := range nodes {
		p, err := m.AllocateRooted(tp.roots, head(i), nodeSizes[i%len(nodeSizes)], false)
		if err != nil {
			return nil, fmt.Errorf("preloading node %d: %w", i, err)
		}
		if i > 0 {
			if err := m.Store(p, mem.Word(nodes[i-1])); err != nil {
				return nil, err
			}
			if err := m.Store(p+mem.WordBytes, mem.Word(nodes[rng.Intn(i)])); err != nil {
				return nil, err
			}
		}
		nodes[i] = p
	}
	last := len(nodes) - 1
	if err := m.Store(head(last+1), 0); err != nil {
		return nil, err
	}

	wk := newWorker(tp.roots, seed+1)
	scratch := rootsBase + 2*mem.WordBytes
	// graphRequest: 32 allocations into the scratch slots; every eighth
	// is followed by a store repointing word 1 of a random old node at
	// another random old node.
	wk.request = func(tr *tracer) {
		for i := 0; i < allocsPerRequest; i++ {
			wk.alloc(m, scratch+mem.Addr(i*mem.WordBytes), requestSizes[i&3], tr)
			if i&7 == 7 {
				a, b := nodes[wk.rng.Intn(len(nodes))], nodes[wk.rng.Intn(len(nodes))]
				wk.store(m, a+mem.WordBytes, mem.Word(b), spStore, tr)
			}
		}
	}
	tp.workers = []*worker{wk}
	tp.reach = func() error {
		v, err := tp.w.Load(head(last))
		if err != nil {
			return err
		}
		for i := last; i >= 0; i-- {
			p := mem.Addr(v)
			if p != nodes[i] {
				return fmt.Errorf("graph chain: node %d is at %#x, the chain reaches %#x", i, uint32(nodes[i]), uint32(p))
			}
			if !tp.w.Heap.IsAllocated(p) {
				return fmt.Errorf("graph chain: node %d at %#x was freed", i, uint32(p))
			}
			if v, err = tp.w.Load(p); err != nil {
				return err
			}
		}
		return nil
	}
	return tp, nil
}
