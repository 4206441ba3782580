package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != Time(1500*time.Millisecond) {
		t.Error("FromSeconds")
	}
	if FromMillis(250) != Time(250*time.Millisecond) {
		t.Error("FromMillis")
	}
	if got := FromSeconds(2).Seconds(); got != 2 {
		t.Errorf("Seconds: %v", got)
	}
	tt := FromSeconds(1)
	if tt.Add(time.Second) != FromSeconds(2) {
		t.Error("Add")
	}
	if FromSeconds(3).Sub(FromSeconds(1)) != 2*time.Second {
		t.Error("Sub")
	}
	if !FromSeconds(1).Before(FromSeconds(2)) || !FromSeconds(2).After(FromSeconds(1)) {
		t.Error("ordering")
	}
	if got := FromMillis(1234).String(); got != "1.234s" {
		t.Errorf("String: %q", got)
	}
}

func TestSystemClockAdvances(t *testing.T) {
	c := NewSystem(1)
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Errorf("system clock did not advance: %v then %v", a, b)
	}
}

func TestSystemClockScale(t *testing.T) {
	c := NewSystem(100)
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Now().Sub(start)
	// 5 ms wall at 100x should read ~500 ms emulated; allow slop.
	if elapsed < 300*time.Millisecond {
		t.Errorf("scaled clock too slow: %v", elapsed)
	}
}

// A reached deadline wins over a pending Wake: Wait returns true at
// once and leaves the token for the next sleep.
func TestSystemWaitReachesTarget(t *testing.T) {
	c := NewSystem(1000) // 1ms wall = 1s emulated
	w := NewWaiter(c)
	w.Wake()
	if !w.Wait(c.Now()) {
		t.Fatal("Wait on a reached deadline returned false")
	}
	if w.Wait(c.Now().Add(time.Hour)) {
		t.Fatal("the pending Wake was lost")
	}
}

// A Wake cancels one sleep only: the same waiter then sleeps to its
// next deadline.
func TestSystemWaitCancel(t *testing.T) {
	c := NewSystem(1000)
	w := NewWaiter(c)
	w.Wake()
	if w.Wait(c.Now().Add(10 * time.Second)) {
		t.Error("cancelled Wait returned true")
	}
	target := c.Now().Add(100 * time.Millisecond)
	if !w.Wait(target) || c.Now() < target {
		t.Errorf("Wait after a cancel returned before target %v", target)
	}
}

func TestSystemScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSystem(0) did not panic")
		}
	}()
	NewSystem(0)
}

func TestManualBasics(t *testing.T) {
	m := NewManual(FromSeconds(1))
	if m.Now() != FromSeconds(1) {
		t.Error("initial")
	}
	m.Advance(500 * time.Millisecond)
	if m.Now() != FromMillis(1500) {
		t.Errorf("after Advance: %v", m.Now())
	}
	m.Set(FromSeconds(3))
	if m.Now() != FromSeconds(3) {
		t.Error("after Set")
	}
}

func TestManualBackwardsPanics(t *testing.T) {
	m := NewManual(FromSeconds(5))
	defer func() {
		if recover() == nil {
			t.Error("backwards Set did not panic")
		}
	}()
	m.Set(FromSeconds(1))
}

func TestManualWaitWakesOnAdvance(t *testing.T) {
	m := NewManual(0)
	w := NewWaiter(m)
	done := make(chan bool, 1)
	go func() { done <- w.Wait(FromSeconds(2)) }()
	// Give the waiter a moment to register, then advance in two hops.
	time.Sleep(time.Millisecond)
	m.Set(FromSeconds(1))
	select {
	case <-done:
		t.Fatal("woke before deadline")
	case <-time.After(5 * time.Millisecond):
	}
	m.Set(FromSeconds(2))
	select {
	case ok := <-done:
		if !ok {
			t.Error("Wait returned false")
		}
	case <-time.After(time.Second):
		t.Fatal("Wait never woke")
	}
}

func TestManualWaitPastDeadline(t *testing.T) {
	m := NewManual(FromSeconds(10))
	if !NewWaiter(m).Wait(FromSeconds(5)) {
		t.Error("Wait on past deadline should return immediately true")
	}
	if n := registered(m); n != 0 {
		t.Errorf("a past deadline left %d registrations", n)
	}
}

func TestManualWaitCancel(t *testing.T) {
	m := NewManual(0)
	w := NewWaiter(m)
	done := make(chan bool, 1)
	go func() { done <- w.Wait(FromSeconds(1)) }()
	time.Sleep(time.Millisecond)
	w.Wake()
	select {
	case ok := <-done:
		if ok {
			t.Error("cancelled Wait returned true")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Wait never returned")
	}
	// The cancelled waiter must be deregistered.
	if n := registered(m); n != 0 {
		t.Errorf("cancelled waiter still registered (%d)", n)
	}
}

func TestManualConcurrentWaiters(t *testing.T) {
	m := NewManual(0)
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !NewWaiter(m).Wait(FromMillis(int64(i))) {
				t.Error("waiter cancelled unexpectedly")
			}
		}(i)
	}
	go func() {
		for i := 0; i < n; i++ {
			m.Advance(time.Millisecond)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters deadlocked")
	}
}

// registered counts m's pending waiter registrations.
func registered(m *Manual) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

func TestOffsetClock(t *testing.T) {
	m := NewManual(FromSeconds(10))
	o := Offset{Base: m, Shift: 2 * time.Second}
	if o.Now() != FromSeconds(12) {
		t.Errorf("Offset.Now = %v", o.Now())
	}
}

func TestDriftingClock(t *testing.T) {
	m := NewManual(FromSeconds(100))
	d := NewDrifting(m, 2.0) // runs twice as fast
	if d.Now() != FromSeconds(100) {
		t.Errorf("drifting clock not anchored: %v", d.Now())
	}
	m.Advance(10 * time.Second)
	if d.Now() != FromSeconds(120) {
		t.Errorf("drifting clock: %v, want 120s", d.Now())
	}
	// A slow clock anchored at 110s sees half of the next 10s advance.
	slow := NewDrifting(m, 0.5)
	m.Advance(10 * time.Second)
	if slow.Now() != FromSeconds(115) {
		t.Errorf("slow drifting clock: %v, want 115s", slow.Now())
	}
}
