package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestMonotonicClampsRegression(t *testing.T) {
	local := NewManual(0)
	sc := NewSynced(local)
	m := NewMonotonic(sc)

	sc.offset.Store(int64(100 * time.Millisecond))
	local.Set(Time(50 * time.Millisecond.Nanoseconds()))
	t1 := m.Now() // 150ms

	// A refined (smaller) offset pulls the synced clock back below t1.
	sc.offset.Store(int64(20 * time.Millisecond))
	if raw := sc.Now(); raw >= t1 {
		t.Fatalf("test rig broken: synced clock did not regress (%v >= %v)", raw, t1)
	}
	if t2 := m.Now(); t2 < t1 {
		t.Fatalf("monotonic clock regressed: %v after %v", t2, t1)
	}

	// Once the underlying clock catches back up, readings advance again.
	local.Set(Time(500 * time.Millisecond.Nanoseconds()))
	if t3 := m.Now(); t3 <= t1 {
		t.Fatalf("monotonic clock stuck at floor: %v not past %v", t3, t1)
	}
}

func TestMonotonicNegativeFirstReading(t *testing.T) {
	local := NewManual(Time(-5 * time.Second.Nanoseconds()))
	m := NewMonotonic(local)
	if got := m.Now(); got != Time(-5*time.Second.Nanoseconds()) {
		t.Fatalf("first reading clamped: %v", got)
	}
}

func TestMonotonicConcurrent(t *testing.T) {
	m := NewMonotonic(NewSystem(1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := m.Now()
			for i := 0; i < 5000; i++ {
				now := m.Now()
				if now < prev {
					t.Errorf("regressed: %v after %v", now, prev)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
}

// TestMonotonicFloorAcrossResyncLeaps pins the interaction chaos relies
// on only indirectly: when a resync pulls a Synced clock backwards (a
// better estimate replacing one that ran too far ahead), a Monotonic
// wrapped around it must hold its floor — readings stall, they never
// regress — and resume tracking once the corrected clock passes the
// floor again.
func TestMonotonicFloorAcrossResyncLeaps(t *testing.T) {
	local := NewManual(Time(1_000_000))
	synced := NewSynced(local)
	mono := NewMonotonic(synced)

	// The first estimate runs 10µs ahead; the client stamps with it.
	synced.offset.Store(int64(10 * time.Microsecond))
	high := mono.Now()
	if high != 1_010_000 {
		t.Fatalf("high water = %d, want 1010000", high)
	}

	// A resync leap: the refined offset is much smaller, so the synced
	// clock regresses below a stamp already handed out.
	synced.offset.Store(int64(1 * time.Microsecond))
	if now := synced.Now(); now >= high {
		t.Fatalf("test setup broken: synced clock did not regress (%d >= %d)", now, high)
	}
	for i := 0; i < 3; i++ {
		if got := mono.Now(); got != high {
			t.Fatalf("monotonic regressed after leap: %d, floor %d", got, high)
		}
	}

	// While stalled at the floor, underlying progress short of the
	// floor must stay invisible...
	local.Advance(5 * time.Microsecond) // synced: 1_006_000 < floor
	if got := mono.Now(); got != high {
		t.Fatalf("monotonic moved below floor: %d", got)
	}

	// ...and once the corrected clock passes the floor, readings track
	// it again.
	local.Advance(5 * time.Microsecond) // synced: 1_011_000 > floor
	got := mono.Now()
	if want := Time(1_011_000); got != want {
		t.Fatalf("monotonic did not resume tracking: %d, want %d", got, want)
	}

	// A second leap in the other direction (offset grows) jumps forward;
	// the floor follows.
	synced.offset.Store(int64(20 * time.Microsecond))
	jumped := mono.Now()
	if want := Time(1_030_000); jumped != want {
		t.Fatalf("forward leap: %d, want %d", jumped, want)
	}
	synced.offset.Store(0)
	if got := mono.Now(); got != jumped {
		t.Fatalf("floor lost after forward leap: %d, want %d", got, jumped)
	}
}
