// Multi-tenant serving: three tenants share one conservatively
// collected heap, each with a byte budget and an over-budget policy
// (DESIGN.md section 5i). A "fail" tenant is denied at the boundary
// with a typed error naming the shortfall, a "collect-first" tenant
// gets a collection run on its behalf and sails on because its garbage
// covers the charge, and an "evict" tenant is cancelled wholesale —
// its objects reclaimed even though they are still rooted — without
// disturbing its neighbours.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
)

const objWords = 8 // one 32-byte size class: budgets below are exact

func main() {
	w, err := repro.NewWorld(repro.Config{GCDivisor: 8})
	if err != nil {
		log.Fatal(err)
	}
	// Root slots: 16 per tenant, side by side in one data segment.
	const slots = 16
	data, err := w.Space.MapNew("roots", repro.KindData, 0x2000, 3*slots*4, 3*slots*4)
	if err != nil {
		log.Fatal(err)
	}
	base := func(i int) repro.Addr { return repro.Addr(0x2000 + i*slots*4) }

	budget := uint64(8 * objWords * 4) // eight objects each
	pols := []repro.TenantPolicy{repro.TenantFail, repro.TenantCollectFirst, repro.TenantEvict}
	tens := make([]*repro.Tenant, len(pols))
	muts := make([]*repro.Mutator, len(pols))
	for i, pol := range pols {
		tens[i] = w.NewTenant(repro.TenantConfig{
			Name: pol.String(), BudgetBytes: budget, Policy: pol,
		})
		muts[i] = tens[i].NewMutator()
	}

	// The fail tenant hoards: every object stays rooted, so the ninth
	// allocation is denied at the exact budget boundary.
	for i := 0; ; i++ {
		_, err := muts[0].AllocateRooted(data, base(0)+repro.Addr(4*(i%slots)), objWords, false)
		if err != nil {
			var be *repro.BudgetError
			if !errors.As(err, &be) {
				log.Fatal(err)
			}
			fmt.Printf("fail tenant denied after %d objects: need %d bytes, %d/%d used\n",
				i, be.Requested, be.Live, be.Budget)
			break
		}
	}

	// The collect-first tenant churns: it overwrites one root slot, so
	// all but one object is garbage. Forced collections cover every
	// over-budget charge and it allocates far past its budget.
	for i := 0; i < 64; i++ {
		if _, err := muts[1].AllocateRooted(data, base(1), objWords, false); err != nil {
			log.Fatal(err)
		}
	}
	// A handle publishes its allocation count to the tenant at its slow
	// paths and at safepoints; collect once so the count is exact.
	w.Collect()
	st := tens[1].Stats()
	fmt.Printf("collect-first tenant allocated %d objects on a %d-object budget (%d forced collections, %d denials)\n",
		st.AllocatedObjects, budget/(objWords*4), st.ForcedCollections, st.BudgetDenials)

	// The evict tenant hoards like the first, but its policy cancels the
	// whole tenant: rooted or not, its objects are reclaimed.
	var victim repro.Addr
	for i := 0; ; i++ {
		p, err := muts[2].AllocateRooted(data, base(2)+repro.Addr(4*(i%slots)), objWords, false)
		if err != nil {
			if !errors.Is(err, repro.ErrTenantEvicted) {
				log.Fatal(err)
			}
			fmt.Printf("evict tenant removed at object %d\n", i)
			break
		}
		victim = p
	}
	est := tens[2].Stats()
	fmt.Printf("evicted: %d objects / %d bytes reclaimed, live now %d bytes\n",
		est.ReclaimedObjects, est.ReclaimedBytes, est.LiveBytes)
	if w.Heap.IsAllocated(victim) {
		log.Fatal("victim object survived eviction")
	}

	// The neighbours are untouched: the fail tenant's hoard is still
	// live, byte for byte, and the heap still audits clean.
	w.Collect()
	w.FinishSweep()
	if err := w.VerifyIntegrity(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bystander check: fail tenant still owns %d bytes (budget %d)\n",
		tens[0].OwnedBytes(), budget)
}
