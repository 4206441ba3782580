package vclock

import (
	"testing"
	"time"
)

func TestRateSyncedNoSamplesPassesThrough(t *testing.T) {
	base := NewManual(FromSeconds(7))
	c := NewRateSynced(base, 4)
	if c.Now() != FromSeconds(7) {
		t.Errorf("unfitted Now = %v", c.Now())
	}
	if len(c.samples) != 0 || c.rate != 1 {
		t.Error("zero state wrong")
	}
}

func TestRateSyncedSingleSampleIsOffset(t *testing.T) {
	base := NewManual(FromSeconds(10))
	c := NewRateSynced(base, 4)
	c.addPoint(FromSeconds(10), FromSeconds(25)) // server 15s ahead
	if got := c.Now(); got != FromSeconds(25) {
		t.Errorf("Now = %v, want 25s", got)
	}
	base.Advance(5 * time.Second)
	if got := c.Now(); got != FromSeconds(30) {
		t.Errorf("Now after advance = %v, want 30s", got)
	}
}

// The headline property: a drifting client with two spaced samples
// recovers both offset and rate, so the free-running error stays flat
// where a pure offset sync diverges.
func TestRateSyncedCompensatesDrift(t *testing.T) {
	world := NewManual(0)               // true/server time
	local := NewDrifting(world, 1.0005) // gains 0.5 ms/s
	c := NewRateSynced(local, 8)
	plain := NewSynced(local)

	sampleAt := func() {
		// A perfect exchange: the estimated server time equals truth.
		c.addPoint(local.Now(), world.Now())
		plain.offset.Store(int64(time.Duration(world.Now() - local.Now())))
	}
	sampleAt()
	world.Advance(10 * time.Second)
	sampleAt()

	// Free-run 200 s: plain offset error grows to ≈100 ms; the rate
	// fit stays within a few µs (fit noise only).
	world.Advance(200 * time.Second)
	truth := world.Now()
	rateErr := absDur(time.Duration(c.Now() - truth))
	plainErr := absDur(time.Duration(plain.Now() - truth))
	if plainErr < 90*time.Millisecond {
		t.Fatalf("test setup wrong: plain error %v", plainErr)
	}
	if rateErr > time.Millisecond {
		t.Errorf("rate-synced error %v, want ≈0 (plain was %v)", rateErr, plainErr)
	}
	wantRate := 1 / 1.0005
	if got := c.rate; got < wantRate-0.0001 || got > wantRate+0.0001 {
		t.Errorf("Rate = %v, want ≈%v", got, wantRate)
	}
}

func TestRateSyncedWindowSlides(t *testing.T) {
	base := NewManual(0)
	c := NewRateSynced(base, 3)
	for i := 0; i < 10; i++ {
		c.addPoint(FromSeconds(float64(i)), FromSeconds(float64(i)))
		base.Set(FromSeconds(float64(i)))
	}
	if len(c.samples) != 3 {
		t.Errorf("window = %d", len(c.samples))
	}
}

func TestRateSyncedClampsInsaneRates(t *testing.T) {
	base := NewManual(0)
	c := NewRateSynced(base, 4)
	// Corrupt samples implying the server runs 2× as fast.
	c.addPoint(0, 0)
	c.addPoint(FromSeconds(1), FromSeconds(2))
	if r := c.rate; r > 1.01 {
		t.Errorf("rate %v not clamped", r)
	}
}

func TestRateSyncedDegenerateSameInstant(t *testing.T) {
	base := NewManual(FromSeconds(5))
	c := NewRateSynced(base, 4)
	c.addPoint(FromSeconds(5), FromSeconds(8))
	c.addPoint(FromSeconds(5), FromSeconds(10)) // same local instant
	// Mean offset fallback: server ≈ 9s at local 5s.
	if got := c.Now(); got != FromSeconds(9) {
		t.Errorf("degenerate Now = %v", got)
	}
}

func TestRateSyncedResyncOverExchanger(t *testing.T) {
	world := NewManual(0)
	local := NewDrifting(world, 0.9995)
	server := Offset{Base: world, Shift: 2 * time.Second}
	c := NewRateSynced(local, 8)
	link := &fakeLink{base: world, server: server, fwd: time.Millisecond, back: time.Millisecond}
	// fakeLink stamps with `local` through Synchronize inside Resync.
	if _, err := c.Resync(exchangerOn(link, world, local), 1); err != nil {
		t.Fatal(err)
	}
	world.Advance(20 * time.Second)
	if _, err := c.Resync(exchangerOn(link, world, local), 1); err != nil {
		t.Fatal(err)
	}
	world.Advance(100 * time.Second)
	truth := server.Now()
	if e := absDur(time.Duration(c.Now() - truth)); e > 5*time.Millisecond {
		t.Errorf("post-resync drift error %v", e)
	}
}

// exchangerOn adapts fakeLink (which advances `world`) so samples are
// taken against the drifting local clock.
func exchangerOn(l *fakeLink, world *Manual, local Clock) Exchanger {
	return ExchangerFunc(func(tc1 Time) (Time, Time, error) {
		return l.Exchange(tc1)
	})
}
