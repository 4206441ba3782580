package vclock

import (
	"sync"
	"testing"
	"time"
)

// A Ticker fires once per elapsed step and hands fn the clock's reading.
func TestTickerFiresPerStep(t *testing.T) {
	clk := NewManual(0)
	ticks := make(chan Time, 8)
	tk := Every(clk, time.Second, func(now Time) { ticks <- now })
	defer tk.Stop()
	next := func() Time {
		select {
		case now := <-ticks:
			return now
		case <-time.After(5 * time.Second):
			t.Fatal("no tick")
			return 0
		}
	}
	for i := int64(1); i <= 3; i++ {
		waitRegistered(t, clk)
		clk.Advance(time.Second)
		if now := next(); now != FromSeconds(float64(i)) {
			t.Fatalf("tick %d read %v, want %v", i, now, FromSeconds(float64(i)))
		}
	}
	// Two steps at once: two ticks, both at the clock's reading.
	waitRegistered(t, clk)
	clk.Advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if now := next(); now != FromSeconds(5) {
			t.Fatalf("catch-up tick read %v, want 5s", now)
		}
	}
	waitRegistered(t, clk)
	select {
	case now := <-ticks:
		t.Fatalf("extra tick at %v", now)
	default:
	}
}

// waitRegistered waits until the ticker's waiter sleeps on clk.
func waitRegistered(t *testing.T, clk *Manual) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for registered(clk) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never slept on the clock")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	clk := NewManual(0)
	tk := Every(clk, time.Hour, func(Time) { t.Error("ticked") })
	tk.Stop()
	tk.Stop() // idempotent
	if n := registered(clk); n != 0 {
		t.Errorf("stopped ticker left %d registrations", n)
	}
}

// Concurrent Stops are once-guarded: none panics and all return after
// the goroutine exits.
func TestTickerStopConcurrent(t *testing.T) {
	clk := NewSystem(1000)
	tk := Every(clk, time.Millisecond, func(Time) {})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk.Stop()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Stops hung")
	}
}
