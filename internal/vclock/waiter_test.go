package vclock

import (
	"runtime"
	"testing"
	"time"
)

func TestSystemWaiterDeadline(t *testing.T) {
	clk := NewSystem(1000) // 1 ms wall = 1 s emulated
	w := NewWaiter(clk)
	target := clk.Now().Add(200 * time.Millisecond)
	if !w.Wait(target) {
		t.Fatal("Wait returned false with no Wake issued")
	}
	if now := clk.Now(); now < target {
		t.Fatalf("Wait returned at %v, before target %v", now, target)
	}
}

func TestSystemWaiterWake(t *testing.T) {
	clk := NewSystem(1)
	w := NewWaiter(clk)
	go func() {
		time.Sleep(5 * time.Millisecond)
		w.Wake()
	}()
	start := time.Now()
	if w.Wait(clk.Now().Add(time.Hour)) {
		t.Fatal("Wait claimed the one-hour deadline was reached")
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("wake took %v", wall)
	}
}

// A Wake issued while nothing waits must not be lost: it wakes the next
// Wait (the 1-buffered kick-channel semantics the scanner relies on).
func TestWaiterWakeBeforeWait(t *testing.T) {
	for name, w := range map[string]Waiter{
		"system": NewWaiter(NewSystem(1)),
		"manual": NewWaiter(NewManual(0)),
	} {
		w.Wake()
		w.Wake() // redundant Wakes coalesce into one token
		if w.Wait(Max) {
			t.Fatalf("%s: buffered Wake reported deadline reached", name)
		}
	}
}

// Waiter reuse across many sleeps must not allocate or leak goroutines —
// the point of a reusable alarm.
func TestSystemWaiterReuseAllocFree(t *testing.T) {
	clk := NewSystem(100000) // 10 µs wall = 1 s emulated
	w := NewWaiter(clk)
	w.Wait(clk.Now().Add(time.Second)) // warm
	base := runtime.NumGoroutine()
	allocs := testing.AllocsPerRun(100, func() {
		w.Wait(clk.Now().Add(time.Second))
	})
	if allocs != 0 {
		t.Errorf("system waiter allocates %v per Wait, want 0", allocs)
	}
	if extra := runtime.NumGoroutine() - base; extra > 0 {
		t.Errorf("system waiter leaked %d goroutines across 100 Waits", extra)
	}
}

// A StallClock sleeps on the same wall waiter, so its sleeps are as
// cheap: no allocation and no goroutine per Wait, running or stalled
// (where the waiter re-arms its timer at the poll interval).
func TestStallWaiterAllocFree(t *testing.T) {
	clk := NewStallClock(NewSystem(100000))
	w := NewWaiter(clk)
	if _, ok := w.(*wallWaiter); !ok {
		t.Fatalf("stall clock got %T, want the wall waiter", w)
	}
	w.Wait(clk.Now().Add(time.Second)) // warm
	base := runtime.NumGoroutine()
	allocs := testing.AllocsPerRun(100, func() {
		w.Wait(clk.Now().Add(time.Second))
	})
	if allocs != 0 {
		t.Errorf("running stall clock: waiter allocates %v per Wait, want 0", allocs)
	}
	clk.Stall()
	defer clk.Resume()
	allocs = testing.AllocsPerRun(100, func() {
		w.Wake()
		if w.Wait(clk.Now().Add(time.Second)) {
			t.Fatal("stalled clock reached a deadline past the freeze")
		}
	})
	if allocs != 0 {
		t.Errorf("stalled clock: waiter allocates %v per Wait, want 0", allocs)
	}
	if extra := runtime.NumGoroutine() - base; extra > 0 {
		t.Errorf("stall-clock waiter leaked %d goroutines across 200 Waits", extra)
	}
}

// Cancelling a sleep and immediately re-sleeping must work even when the
// cancelled timer fired concurrently — the stale-fire drain inside Wait.
func TestSystemWaiterCancelThenReuse(t *testing.T) {
	clk := NewSystem(1000)
	w := NewWaiter(clk)
	for i := 0; i < 200; i++ {
		go w.Wake()
		w.Wait(clk.Now().Add(time.Millisecond)) // outcome depends on the race; both are legal
		// The waiter must still time out correctly afterwards. Consume a
		// possible leftover token first — Wait(t) may return false on it.
		target := clk.Now().Add(10 * time.Millisecond)
		for !w.Wait(target) {
		}
		if clk.Now() < target {
			t.Fatalf("iteration %d: deadline reported early", i)
		}
	}
}

func TestManualWaiterDeadline(t *testing.T) {
	clk := NewManual(0)
	w := NewWaiter(clk)
	done := make(chan bool, 1)
	go func() { done <- w.Wait(FromSeconds(1)) }()
	time.Sleep(2 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait returned with the clock still at 0")
	default:
	}
	clk.Set(FromSeconds(1))
	select {
	case reached := <-done:
		if !reached {
			t.Fatal("Wait returned false at its deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait missed the Set")
	}
}

func TestManualWaiterWakeDeregisters(t *testing.T) {
	clk := NewManual(0)
	w := NewWaiter(clk)
	done := make(chan bool, 1)
	go func() { done <- w.Wait(FromSeconds(1)) }()
	time.Sleep(2 * time.Millisecond)
	w.Wake()
	select {
	case reached := <-done:
		if reached {
			t.Fatal("woken Wait claimed the deadline was reached")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wake did not unblock Wait")
	}
	// The cancelled registration must be gone, or a later Set would
	// fire a ghost token into the next sleep.
	if n := registered(clk); n != 0 {
		t.Fatalf("%d ghost registrations after cancelled Wait", n)
	}
}

// An idle scanner parks on Wait(Max). That sleep must not register with
// the Manual clock: no Set can reach it, so the entry would only be
// scanned on every Set.
func TestManualWaiterMaxDoesNotRegister(t *testing.T) {
	clk := NewManual(0)
	w := NewWaiter(clk)
	done := make(chan bool, 1)
	go func() { done <- w.Wait(Max) }()
	time.Sleep(2 * time.Millisecond)
	if n := registered(clk); n != 0 {
		t.Fatalf("Wait(Max) registered %d deadlines", n)
	}
	w.Wake()
	select {
	case reached := <-done:
		if reached {
			t.Fatal("Wait(Max) claimed Max was reached")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wake did not unblock Wait(Max)")
	}
}

func TestManualWaiterReuseAcrossSleeps(t *testing.T) {
	clk := NewManual(0)
	w := NewWaiter(clk)
	for i := 1; i <= 50; i++ {
		target := FromMillis(int64(i * 10))
		done := make(chan bool, 1)
		go func() { done <- w.Wait(target) }()
		time.Sleep(100 * time.Microsecond)
		clk.Set(target)
		select {
		case reached := <-done:
			if !reached {
				// A token left by an earlier racing fire is legal; the
				// deadline has passed, so a re-Wait returns true at once.
				if !w.Wait(target) {
					t.Fatalf("sleep %d: spurious wake then missed deadline", i)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sleep %d never woke", i)
		}
	}
}
