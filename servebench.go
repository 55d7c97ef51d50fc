package repro

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/stats"
	"repro/internal/workload"
)

// ServeBenchOptions parameterises the multi-tenant serving
// measurement.
type ServeBenchOptions struct {
	// Tenants is how many concurrent tenant sessions each policy row
	// runs (default 1000). Every tenant gets its own goroutine, Mutator
	// handle, and private root slots.
	Tenants int `json:"tenants"`
	// Requests is the collect-first row's request count per session
	// (default 12; the fail and evict rows' tapes are fixed by their
	// budget arithmetic instead).
	Requests int `json:"requests"`
	// Trace, when non-nil, records collector events (budget denials,
	// evictions, cycle phases) from every measured world.
	Trace *TraceRecorder `json:"-"`
}

// ServeBenchRow is one over-budget policy's serving profile. Each
// tenant replays a deterministic session tape against a deterministic
// budget, so the allocation, denial, eviction, reclamation, liveness
// and fairness columns are exact invariants the regression gate
// compares bit-for-bit — concurrency changes when collections fire,
// never what each tenant's budget admits. The latency and pause
// percentiles are timing: printed, never recorded or compared
// (cmd/perfbench's serve_tenants row is where they are measured).
type ServeBenchRow struct {
	// Policy is "fail", "collect-first" or "evict".
	Policy  string `json:"policy" gate:"key"`
	Tenants int    `json:"tenants" gate:"exact"`
	// Requests is the allocation attempts each tenant's tape makes.
	Requests int `json:"requests" gate:"exact"`
	// ObjectsAllocated sums successful allocations over all tenants;
	// the same count is cross-checked against the central allocator
	// (exact conservation) before the row is returned.
	ObjectsAllocated uint64 `json:"objects_allocated" gate:"exact"`
	// ObjectsLive is the heap's live-object count after teardown
	// collections: tenants*budget for fail (everything rooted), the
	// tape-determined survivor count for collect-first, 0 for evict.
	ObjectsLive uint64 `json:"objects_live" gate:"exact"`
	// Denials/Evictions/ReclaimedObjects sum the tenants' counters.
	Denials          uint64 `json:"denials" gate:"exact"`
	Evictions        uint64 `json:"evictions" gate:"exact"`
	ReclaimedObjects uint64 `json:"reclaimed_objects" gate:"exact"`
	// FairnessSpread is max-min of per-tenant successful allocations:
	// identical tapes against identical budgets must admit identical
	// counts, so any nonzero spread means budget enforcement leaked
	// between tenants.
	FairnessSpread uint64 `json:"fairness_spread" gate:"exact"`
	// ForcedCollections counts collect-first collections run on the
	// tenants' behalf. Not compared: a collection one tenant forces
	// credits every tenant's garbage at the barrier, so the count
	// depends on goroutine interleaving.
	ForcedCollections uint64 `json:"-" gate:"info"`
	// Collections is the world's cycle count at teardown.
	Collections int `json:"-" gate:"info"`
	// Allocation latency distribution over every attempt (successes
	// and denials), in nanoseconds.
	AllocP50Ns float64 `json:"-" gate:"info"`
	AllocP99Ns float64 `json:"-" gate:"info"`
	// PauseP99Ns is the p99 mutator-visible pause (final pauses for
	// concurrent cycles, full duration for stop-the-world ones).
	PauseP99Ns float64 `json:"-" gate:"info"`
}

// ServeBenchResult is the measurement with the options it ran under.
type ServeBenchResult = BenchResult[ServeBenchOptions, ServeBenchRow]

// serveTape is one policy row's deterministic per-tenant script.
type serveTape struct {
	policy  TenantPolicy
	session workload.ServeSessionParams
	// budgetObjs is the tenant budget in objects of session.ObjWords.
	budgetObjs int
	// Expected per-tenant outcomes; every tenant must match exactly.
	wantAllocated uint64
	wantDenials   uint64
	wantEvicted   bool
}

// ServeBench measures the multi-tenant serving layer under its three
// over-budget policies: thousands of concurrent tenant sessions (the
// scheme- and leak-style bodies from internal/workload) allocating
// against per-tenant budgets on one shared heap, with concurrent
// marking and background sweep underneath. Each policy row checks its
// budget contract exactly — per tenant, not just in aggregate — and
// records the allocation-latency and pause distributions the serving
// SLO cares about.
func ServeBench(opts ServeBenchOptions) (*ServeBenchResult, *stats.Table, error) {
	if opts.Tenants == 0 {
		opts.Tenants = 1000
	}
	if opts.Requests == 0 {
		opts.Requests = 12
	}
	res := &ServeBenchResult{Options: opts}
	const objWords = 8 // charges one 32-byte size class
	tapes := []serveTape{
		// Fail: a leak-style session (nothing ever unrooted) against a
		// 16-object budget, driven for 24 attempts. The budget admits
		// exactly 16; the remaining 8 attempts are denials, every time,
		// for every tenant.
		{
			policy: TenantFail,
			session: workload.ServeSessionParams{
				Kind: workload.ServeLeak, Requests: 6, AllocsPerRequest: 4,
				ObjWords: objWords, Slots: 24,
			},
			budgetObjs:    16,
			wantAllocated: 16,
			wantDenials:   8,
		},
		// Collect-first: a scheme-style session (rotating roots, no
		// links) against a 16-object budget. Live never exceeds the 8
		// root slots once a collection runs, so every over-budget
		// charge is satisfied by the forced collection and all
		// attempts succeed with zero denials.
		{
			policy: TenantCollectFirst,
			session: workload.ServeSessionParams{
				Kind: workload.ServeScheme, Requests: opts.Requests, AllocsPerRequest: 4,
				ObjWords: objWords, Slots: 8,
			},
			budgetObjs:    16,
			wantAllocated: uint64(opts.Requests * 4),
			wantDenials:   0,
		},
		// Evict: the leak session against a 16-object budget with 20
		// attempts. The 17th allocation evicts the tenant — its 16
		// objects are reclaimed wholesale despite being rooted — and
		// the session stops.
		{
			policy: TenantEvict,
			session: workload.ServeSessionParams{
				Kind: workload.ServeLeak, Requests: 5, AllocsPerRequest: 4,
				ObjWords: objWords, Slots: 20,
			},
			budgetObjs:    16,
			wantAllocated: 16,
			wantEvicted:   true,
		},
	}
	for _, tape := range tapes {
		row, err := serveBenchRun(opts, tape)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	tab := stats.NewTable(
		fmt.Sprintf("Multi-tenant serving: %d concurrent tenants per policy (NumCPU=%d)",
			opts.Tenants, runtime.NumCPU()),
		"policy", "tenants", "allocated", "denied", "evicted", "reclaimed", "live", "alloc p50", "alloc p99", "pause p99")
	us := func(ns float64) string { return fmt.Sprintf("%.1fus", ns/1e3) }
	for _, r := range res.Rows {
		tab.AddF(r.Policy, r.Tenants, r.ObjectsAllocated, r.Denials, r.Evictions,
			r.ReclaimedObjects, r.ObjectsLive, us(r.AllocP50Ns), us(r.AllocP99Ns), us(r.PauseP99Ns))
	}
	return res, tab, nil
}

func serveBenchRun(opts ServeBenchOptions, tape serveTape) (*ServeBenchRow, error) {
	// The serving heap runs the repo's most concurrent collector: four
	// detached mark workers, rate-paced assists, background sweep.
	w, err := NewWorld(Config{
		InitialHeapBytes: 8 << 20, ReserveHeapBytes: 64 << 20,
		GCDivisor: 16, ConcurrentMark: true, MarkQuantum: 4096,
		ConcMarkWorkers: 4, ConcurrentSweep: true,
	})
	if err != nil {
		return nil, err
	}
	w.SetTracer(opts.Trace)
	n := opts.Tenants
	sess := tape.session.WithDefaults()
	slotBytes := sess.Slots * 4
	data, err := w.Space.MapNew("roots", KindData, 0x2000, n*slotBytes, n*slotBytes)
	if err != nil {
		return nil, err
	}
	var pauses []float64
	w.SetCollectionHook(func(st CollectionStats) {
		if st.Concurrent {
			pauses = append(pauses, float64(st.PauseFinalNs), float64(st.PauseSnapshotNs))
		} else {
			pauses = append(pauses, float64(st.Duration.Nanoseconds()))
		}
	})
	charge := uint64(tape.budgetObjs) * uint64(sess.ObjWords) * 4
	tens := make([]*Tenant, n)
	muts := make([]*Mutator, n)
	for i := range tens {
		tens[i] = w.NewTenant(TenantConfig{
			Name:        fmt.Sprintf("t%d", i),
			BudgetBytes: charge,
			Policy:      tape.policy,
		})
		muts[i] = tens[i].NewMutator()
	}
	results := make([]*workload.ServeSessionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := sess
			p.Seed = uint64(i)*0x9e3779b97f4a7c15 + 1
			results[i], errs[i] = workload.RunServeSession(muts[i], data, Addr(0x2000+i*slotBytes), p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("servebench: tenant %d: %w", i, err)
		}
	}
	// Teardown: land any in-flight cycle while the hook still samples,
	// then settle the heap so per-tenant reclamation and the live count
	// are final.
	w.FinishConcurrentCycle()
	cycles := w.Collections()
	w.SetCollectionHook(nil)
	w.Collect()
	w.Collect()
	w.FinishSweep()
	if err := w.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("servebench: %w", err)
	}
	row := &ServeBenchRow{
		Policy:      tape.policy.String(),
		Tenants:     n,
		Requests:    sess.Requests * sess.AllocsPerRequest,
		Collections: cycles,
	}
	var allocNs []float64
	minAlloc, maxAlloc := ^uint64(0), uint64(0)
	for i, r := range results {
		st := tens[i].Stats()
		// The budget contract holds per tenant, exactly: same tape +
		// same budget = same admissions, no matter how the scheduler
		// interleaved 1000 sessions.
		if r.Allocated != tape.wantAllocated || st.AllocatedObjects != tape.wantAllocated {
			return nil, fmt.Errorf("servebench: %s: tenant %d allocated %d (stats %d), tape admits exactly %d",
				row.Policy, i, r.Allocated, st.AllocatedObjects, tape.wantAllocated)
		}
		if r.Denials != tape.wantDenials || st.BudgetDenials != tape.wantDenials {
			return nil, fmt.Errorf("servebench: %s: tenant %d denied %d times, want exactly %d",
				row.Policy, i, r.Denials, tape.wantDenials)
		}
		if r.Evicted != tape.wantEvicted || st.Evicted != tape.wantEvicted {
			return nil, fmt.Errorf("servebench: %s: tenant %d evicted=%v, want %v",
				row.Policy, i, r.Evicted, tape.wantEvicted)
		}
		// Settled attribution: the tenant's budget counter agrees with
		// the allocator's ownership table to the byte.
		if owned := tens[i].OwnedBytes(); st.LiveBytes != owned {
			return nil, fmt.Errorf("servebench: %s: tenant %d live %d bytes vs %d owned (attribution drift)",
				row.Policy, i, st.LiveBytes, owned)
		}
		row.ObjectsAllocated += st.AllocatedObjects
		row.Denials += st.BudgetDenials
		row.ReclaimedObjects += st.ReclaimedObjects
		row.ForcedCollections += st.ForcedCollections
		if st.Evicted {
			row.Evictions++
		}
		if st.AllocatedObjects < minAlloc {
			minAlloc = st.AllocatedObjects
		}
		if st.AllocatedObjects > maxAlloc {
			maxAlloc = st.AllocatedObjects
		}
		for _, ns := range r.AllocNs {
			allocNs = append(allocNs, float64(ns))
		}
	}
	row.FairnessSpread = maxAlloc - minAlloc
	// Exact conservation: every allocation in the row went through a
	// tenant handle and is visible in the central stats exactly once.
	hs := w.Heap.Stats()
	if hs.ObjectsAllocated != row.ObjectsAllocated {
		return nil, fmt.Errorf("servebench: %s: central ObjectsAllocated %d, tenants allocated %d",
			row.Policy, hs.ObjectsAllocated, row.ObjectsAllocated)
	}
	row.ObjectsLive = hs.ObjectsLive
	row.AllocP50Ns = pausePercentile(allocNs, 50)
	row.AllocP99Ns = pausePercentile(allocNs, 99)
	row.PauseP99Ns = pausePercentile(pauses, 99)
	return row, nil
}
