package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

// lockWaitCounts reads the three lock_wait* counters.
func lockWaitCounts(w *World) (waits, ns, sleeps uint64) {
	return w.met.lockWaits.Load(), w.met.lockWaitNs.Load(), w.met.lockWaitSleeps.Load()
}

// lockDeadline fails the test if body has not returned within d: a
// wait that never ends is a failure, not a hang.
func lockDeadline(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("not finished after %v", d)
	}
}

// holdThenAcquire has a holder goroutine take mu and keep it until the
// waiter's wait is counted and hold more has passed, then release it;
// the calling goroutine acquires mu as the allocation path's sites do.
// It reports whether the acquisition came after the release.
func holdThenAcquire(w *World, hold time.Duration) bool {
	var mu sync.Mutex
	var released atomic.Bool
	held := make(chan struct{})
	go func() {
		mu.Lock()
		close(held)
		for w.met.lockWaits.Load() == 0 {
			runtime.Gosched()
		}
		if hold > 0 {
			time.Sleep(hold)
		}
		released.Store(true)
		mu.Unlock()
	}()
	<-held
	if !mu.TryLock() {
		w.lockAwake(&mu)
	}
	ok := released.Load()
	mu.Unlock()
	return ok
}

// TestLockAwake pins how an allocation-path waiter spends its wait:
// polling, with yields, for at most awakeWait, then asleep in Lock.
// The timed rows get three attempts, each on a fresh world, because a
// busy box can deschedule either goroutine for longer than the bound;
// a wait that never falls back to Lock fails the 3 ms row on every one.
func TestLockAwake(t *testing.T) {
	timed := func(hold time.Duration, wantSleeps uint64) func(t *testing.T) {
		return func(t *testing.T) {
			for attempt := 0; attempt < 3; attempt++ {
				w := newWorld(t, Config{})
				if !holdThenAcquire(w, hold) {
					t.Fatal("acquired the lock before the holder released it")
				}
				waits, ns, sleeps := lockWaitCounts(w)
				if waits == 1 && sleeps == wantSleeps && ns >= uint64(hold) {
					return
				}
				t.Logf("lock_waits %d, lock_wait_sleeps %d, lock_wait_ns %d; want 1, %d, at least %d",
					waits, sleeps, ns, wantSleeps, hold)
			}
			t.Fatal("every attempt read the wrong counts")
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		// The holder releases as soon as the wait is counted: the waiter
		// sees it within a yield and never sleeps.
		{"within-bound", timed(0, 0)},
		// The holder keeps the lock three times the bound: the waiter
		// stops polling, sleeps in Lock, and holds the lock only after
		// the release.
		{"past-bound", timed(3*time.Millisecond, 1)},
		// One processor: the holder can release only once it is
		// scheduled, and the waiter's yield is what schedules it.
		{"one-proc", func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			w := newWorld(t, Config{})
			lockDeadline(t, 10*time.Second, func() { holdThenAcquire(w, 0) })
		}},
		// Two handles on two goroutines: one collects in a loop, parking
		// the other, which allocates rooted objects and links them. The
		// closure oracle checks every close.
		{"collect-beside-churn", func(t *testing.T) {
			w, closes := collectBesideChurn(t, 4000)
			if closes == 0 {
				t.Fatal("no close was checked")
			}
			if err := w.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, r.run)
	}
}

// collectBesideChurn runs two handles on two goroutines over a lazily
// swept world with the closure oracle armed:
// one loops Collect, the other makes rooted allocations, every fourth
// stored into the one before it, until it has made allocs of them and
// the first has collected 100 times. It returns the world and how many
// closes the oracle checked.
func collectBesideChurn(t *testing.T, allocs int) (*World, int) {
	t.Helper()
	const slots = 256
	w := newWorld(t, Config{InitialHeapBytes: 256 << 10, LazySweep: true})
	roots := addData(t, w, "roots", 0x2000, slots*mem.WordBytes)
	o := installClosureOracle(t, w, nil)
	collector, churner := w.NewMutator(), w.NewMutator()
	var stop atomic.Bool
	var collects atomic.Int64
	errs := make(chan error, 1)
	lockDeadline(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				collector.Collect()
				collects.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			defer stop.Store(true)
			sizes := [4]int{2, 4, 8, 16}
			var prev mem.Addr
			for i := 0; i < allocs || collects.Load() < 100; i++ {
				p, err := churner.AllocateRooted(roots, 0x2000+mem.Addr(i%slots*mem.WordBytes), sizes[i&3], false)
				if err == nil && i&3 == 3 {
					err = churner.Store(p, mem.Word(prev))
				}
				if err != nil {
					errs <- err
					return
				}
				prev = p
			}
		}()
		wg.Wait()
	})
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	return w, o.checked()
}

// TestLockWaitsCounted pins the lock_wait* counters at both ends: a
// single goroutine, collections included, never finds a lock held, and
// a handle allocating beside a goroutine that collects in a loop does.
func TestLockWaitsCounted(t *testing.T) {
	t.Run("one-goroutine", func(t *testing.T) {
		w := newWorld(t, Config{InitialHeapBytes: 64 << 10})
		data := addData(t, w, "data", 0x2000, 4096)
		a, b := w.NewMutator(), w.NewMutator()
		for i := 0; i < 20000; i++ {
			m := a
			if i&1 == 1 {
				m = b
			}
			p, err := m.AllocateRooted(data, 0x2000+mem.Addr(i%1024*mem.WordBytes), 4, false)
			if err == nil {
				err = m.Store(p, mem.Word(i))
			}
			if err == nil {
				_, err = m.Load(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%4096 == 0 {
				m.Collect()
			}
		}
		if w.Collections() < 5 {
			t.Fatalf("%d collections: the churn must collect", w.Collections())
		}
		if waits, ns, sleeps := lockWaitCounts(w); waits|ns|sleeps != 0 {
			t.Fatalf("lock_waits %d, lock_wait_ns %d, lock_wait_sleeps %d; want all 0", waits, ns, sleeps)
		}
	})
	t.Run("collect-beside-churn", func(t *testing.T) {
		// A collection parks the churning handle, whose next call then
		// finds its lock held; under a busy box or one processor that
		// may take a few rounds, so rounds repeat until one is counted.
		deadline := time.Now().Add(20 * time.Second)
		for {
			w, _ := collectBesideChurn(t, 4000)
			if waits, _, _ := lockWaitCounts(w); waits > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("lock_waits read 0 after every round")
			}
		}
	})
}
