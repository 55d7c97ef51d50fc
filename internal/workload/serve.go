package workload

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/simrand"
)

// Request-driven tenant sessions for the multi-tenant serving
// experiment (servebench.go, DESIGN.md section 5i). A session is one
// tenant's request loop against its own Mutator handle and a private
// range of root slots; the bodies are scaled-down versions of the
// example programs — ServeScheme is the minischeme-style churn (cons
// cells allocated, linked, and dropped as evaluation frames retire)
// and ServeLeak is the leakdetective-style accumulator (every object
// stays rooted, so a budgeted tenant must eventually hit its
// over-budget policy).

// ServeKind selects a session body.
type ServeKind int

const (
	// ServeScheme allocates into rotating root slots, overwriting old
	// roots as it goes: steady-state live set of at most Slots objects,
	// the rest reclaimable garbage. A collect-first tenant with a
	// budget above Slots objects never sees a denial.
	ServeScheme ServeKind = iota
	// ServeLeak allocates into consecutive root slots and never drops
	// one: live bytes grow monotonically until the budget policy acts
	// (denial for fail tenants, eviction for evict tenants).
	ServeLeak
)

func (k ServeKind) String() string {
	if k == ServeLeak {
		return "leak"
	}
	return "scheme"
}

// ServeSessionParams scripts one session.
type ServeSessionParams struct {
	Kind ServeKind
	// Requests is how many requests the session serves; each request
	// performs AllocsPerRequest allocations of ObjWords words.
	Requests         int
	AllocsPerRequest int
	ObjWords         int
	// Slots is the session's root-slot count; the session owns the
	// addresses [Base, Base+Slots*4).
	Slots int
	// Seed drives the deterministic request mix (linking and unrooting
	// decisions; allocation order is fixed).
	Seed uint64
	// Links lets scheme sessions chain fresh objects to earlier ones.
	// Chains keep overwritten roots reachable, so a linked session's
	// worst-case live set is its whole allocation history — leave false
	// where an experiment's budget math assumes live <= Slots objects.
	Links bool
}

// WithDefaults fills zero fields with the standard session shape.
func (p ServeSessionParams) WithDefaults() ServeSessionParams {
	if p.Requests == 0 {
		p.Requests = 8
	}
	if p.AllocsPerRequest == 0 {
		p.AllocsPerRequest = 4
	}
	if p.ObjWords == 0 {
		p.ObjWords = 8
	}
	if p.Slots == 0 {
		p.Slots = 16
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// ServeSessionResult is one session's outcome.
type ServeSessionResult struct {
	// Allocated counts successful allocations; Denials counts
	// allocations denied with a budget error. Allocated+Denials+
	// (1 if Evicted) equals the attempts made before any stop.
	Allocated uint64
	Denials   uint64
	// Evicted/Cancelled report that the session stopped early because
	// its tenant was reclaimed or cancelled.
	Evicted   bool
	Cancelled bool
}

// RunServeSession drives one session to completion. Budget denials and
// eviction are expected outcomes recorded in the result; any other
// allocation failure is returned as an error. The caller owns the root
// slots [base, base+Slots*4) of data.
func RunServeSession(m *core.Mutator, data *mem.Segment, base mem.Addr, p ServeSessionParams) (*ServeSessionResult, error) {
	p = p.WithDefaults()
	rng := simrand.New(p.Seed)
	res := &ServeSessionResult{}
	slot := 0
	for r := 0; r < p.Requests; r++ {
		for a := 0; a < p.AllocsPerRequest; a++ {
			at := base + mem.Addr(4*(slot%p.Slots))
			ptr, err := m.AllocateRooted(data, at, p.ObjWords, false)
			if err != nil {
				switch {
				case errors.Is(err, core.ErrTenantEvicted):
					res.Evicted = true
					return res, nil
				case errors.Is(err, core.ErrTenantCancelled):
					res.Cancelled = true
					return res, nil
				case errors.Is(err, core.ErrBudgetExceeded):
					res.Denials++
					continue
				default:
					return res, fmt.Errorf("workload: serve session: request %d: %w", r, err)
				}
			}
			res.Allocated++
			slot++
			// Linked scheme bodies occasionally chain the fresh object to
			// the previous root, mimicking cons-cell chains; the store is
			// to an owned, just-rooted object.
			if p.Links && p.Kind == ServeScheme && slot > 1 && rng.Bool(0.25) {
				prev := base + mem.Addr(4*((slot-2)%p.Slots))
				v, err := m.Load(prev)
				if err != nil {
					return res, err
				}
				if v != 0 {
					if err := m.Store(ptr, v); err != nil {
						return res, err
					}
				}
			}
		}
		// Scheme sessions retire the request's frame: drop a random root
		// so the steady-state live set stays bounded. Leak sessions keep
		// everything.
		if p.Kind == ServeScheme && rng.Bool(0.5) {
			j := rng.Intn(p.Slots)
			if err := m.Store(base+mem.Addr(4*j), 0); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}
