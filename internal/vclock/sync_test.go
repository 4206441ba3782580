package vclock

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// fakeLink simulates the client↔server exchange of Figure 5 with
// controllable one-way delays. Both clocks ride the same Manual base so
// time is fully deterministic: the exchange itself advances the clock.
type fakeLink struct {
	base    *Manual
	server  Clock // server's view of the base (may be offset)
	fwd     time.Duration
	back    time.Duration
	serverP time.Duration // server processing time between ts2 and ts3
}

func (l *fakeLink) Exchange(tc1 Time) (Time, Time, error) {
	l.base.Advance(l.fwd)
	ts2 := l.server.Now()
	l.base.Advance(l.serverP)
	ts3 := l.server.Now()
	l.base.Advance(l.back)
	return ts2, ts3, nil
}

func TestSampleOffsetSymmetricExact(t *testing.T) {
	// With symmetric delays the estimate must recover the true offset
	// exactly, regardless of delay magnitude and processing time.
	for _, trueOff := range []time.Duration{0, time.Second, -3 * time.Second, 123456789} {
		base := NewManual(FromSeconds(1000))
		link := &fakeLink{
			base:    base,
			server:  Offset{Base: base, Shift: trueOff},
			fwd:     7 * time.Millisecond,
			back:    7 * time.Millisecond,
			serverP: 2 * time.Millisecond,
		}
		off, sample, err := Synchronize(base, link, 1)
		if err != nil {
			t.Fatal(err)
		}
		if off != trueOff {
			t.Errorf("trueOff=%v: estimated %v", trueOff, off)
		}
		if sample.RTT() != 14*time.Millisecond {
			t.Errorf("RTT = %v, want 14ms", sample.RTT())
		}
	}
}

func TestSampleOffsetAsymmetryErrorBound(t *testing.T) {
	// With asymmetric delays the error is exactly (fwd - back)/2.
	cases := []struct{ fwd, back time.Duration }{
		{1 * time.Millisecond, 9 * time.Millisecond},
		{9 * time.Millisecond, 1 * time.Millisecond},
		{0, 10 * time.Millisecond},
		{5 * time.Millisecond, 5 * time.Millisecond},
	}
	trueOff := 2 * time.Second
	for _, c := range cases {
		base := NewManual(0)
		link := &fakeLink{base: base, server: Offset{Base: base, Shift: trueOff}, fwd: c.fwd, back: c.back}
		off, _, err := Synchronize(base, link, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantErr := (c.fwd - c.back) / 2
		if got := off - trueOff; got != wantErr {
			t.Errorf("fwd=%v back=%v: error %v, want %v", c.fwd, c.back, got, wantErr)
		}
	}
}

// Property: for arbitrary non-negative delays, |estimation error| is
// bounded by half the total asymmetry, and never exceeds RTT/2.
func TestSyncErrorBoundProperty(t *testing.T) {
	f := func(fwdMs, backMs, offMs int16, procMs uint8) bool {
		fwd := time.Duration(abs16(fwdMs)) * time.Millisecond
		back := time.Duration(abs16(backMs)) * time.Millisecond
		trueOff := time.Duration(offMs) * time.Millisecond
		base := NewManual(FromSeconds(100))
		link := &fakeLink{
			base:    base,
			server:  Offset{Base: base, Shift: trueOff},
			fwd:     fwd,
			back:    back,
			serverP: time.Duration(procMs) * time.Millisecond,
		}
		off, sample, err := Synchronize(base, link, 1)
		if err != nil {
			return false
		}
		estErr := off - trueOff
		bound := (fwd - back) / 2
		if estErr != bound {
			return false
		}
		return absDur(estErr) <= sample.RTT()/2+time.Nanosecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs16(v int16) int64 {
	x := int64(v)
	if x < 0 {
		return -x
	}
	return x
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestSynchronizePicksMinRTT(t *testing.T) {
	// Delays vary per round; the best (min-RTT) round is symmetric and
	// must be the one selected, yielding an exact offset.
	base := NewManual(0)
	trueOff := 700 * time.Millisecond
	server := Offset{Base: base, Shift: trueOff}
	round := 0
	ex := ExchangerFunc(func(tc1 Time) (Time, Time, error) {
		delays := []struct{ fwd, back time.Duration }{
			{20 * time.Millisecond, 80 * time.Millisecond}, // asymmetric, slow
			{3 * time.Millisecond, 3 * time.Millisecond},   // symmetric, fast
			{50 * time.Millisecond, 10 * time.Millisecond}, // asymmetric
		}
		d := delays[round%len(delays)]
		round++
		base.Advance(d.fwd)
		ts2 := server.Now()
		ts3 := server.Now()
		base.Advance(d.back)
		return ts2, ts3, nil
	})
	off, sample, err := Synchronize(base, ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	if off != trueOff {
		t.Errorf("offset %v, want %v", off, trueOff)
	}
	if sample.RTT() != 6*time.Millisecond {
		t.Errorf("selected RTT %v, want 6ms", sample.RTT())
	}
}

func TestSynchronizeAllErrors(t *testing.T) {
	base := NewManual(0)
	boom := errors.New("link down")
	ex := ExchangerFunc(func(Time) (Time, Time, error) { return 0, 0, boom })
	if _, _, err := Synchronize(base, ex, 3); !errors.Is(err, boom) {
		t.Errorf("err = %v, want link error", err)
	}
}

func TestSynchronizeInvalidSamples(t *testing.T) {
	base := NewManual(FromSeconds(10))
	// Server replies with ts3 < ts2: causally impossible.
	ex := ExchangerFunc(func(tc1 Time) (Time, Time, error) {
		base.Advance(time.Millisecond)
		return FromSeconds(5), FromSeconds(4), nil
	})
	if _, _, err := Synchronize(base, ex, 2); !errors.Is(err, ErrNoValidSample) {
		t.Errorf("err = %v, want ErrNoValidSample", err)
	}
}

func TestSynchronizeRoundsClamped(t *testing.T) {
	base := NewManual(0)
	calls := 0
	ex := ExchangerFunc(func(tc1 Time) (Time, Time, error) {
		calls++
		base.Advance(time.Millisecond)
		return base.Now(), base.Now(), nil
	})
	if _, _, err := Synchronize(base, ex, 0); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("rounds=0 ran %d exchanges, want 1", calls)
	}
}

func TestSyncedClock(t *testing.T) {
	base := NewManual(FromSeconds(50))
	c := NewSynced(base)
	if c.Now() != FromSeconds(50) {
		t.Error("unsynced Synced should equal local")
	}
	trueOff := 4 * time.Second
	link := &fakeLink{
		base:   base,
		server: Offset{Base: base, Shift: trueOff},
		fwd:    time.Millisecond, back: time.Millisecond,
	}
	sample, err := c.Resync(link, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sample.Valid() {
		t.Error("sample invalid")
	}
	if time.Duration(c.offset.Load()) != trueOff {
		t.Errorf("offset %v, want %v", time.Duration(c.offset.Load()), trueOff)
	}
	if c.Now() != base.Now().Add(trueOff) {
		t.Errorf("Synced.Now mismatch")
	}
}

func TestSyncWithDriftingLocalClock(t *testing.T) {
	// A drifting client resynchronizes; right after sync the error must
	// be small, then grows with drift until the next resync shrinks it.
	base := NewManual(FromSeconds(0))
	server := Offset{Base: base, Shift: 10 * time.Second}
	local := NewDrifting(base, 1.001) // gains 1ms per second
	c := NewSynced(local)
	link := &fakeLink{base: base, server: server, fwd: time.Millisecond, back: time.Millisecond}
	// Override the exchanger to stamp with the *drifting* clock: we just
	// reuse Synchronize's plumbing through c.Resync, which stamps with
	// `local` already.
	if _, err := c.Resync(link, 1); err != nil {
		t.Fatal(err)
	}
	errNow := absDur(time.Duration(c.Now() - server.Now()))
	if errNow > time.Millisecond {
		t.Errorf("post-sync error %v too large", errNow)
	}
	base.Advance(100 * time.Second)
	errLater := absDur(time.Duration(c.Now() - server.Now()))
	if errLater < 50*time.Millisecond {
		t.Errorf("drift error should accumulate, got %v", errLater)
	}
	if _, err := c.Resync(link, 1); err != nil {
		t.Fatal(err)
	}
	errAfter := absDur(time.Duration(c.Now() - server.Now()))
	if errAfter > 2*time.Millisecond {
		t.Errorf("resync did not recover: %v", errAfter)
	}
}

func TestSampleValid(t *testing.T) {
	good := Sample{TC1: 0, TS2: 5, TS3: 6, TC4: 10}
	if !good.Valid() {
		t.Error("good sample invalid")
	}
	bad := Sample{TC1: 10, TS2: 5, TS3: 6, TC4: 0}
	if bad.Valid() {
		t.Error("bad sample valid")
	}
	negProc := Sample{TC1: 0, TS2: 6, TS3: 5, TC4: 10}
	if negProc.Valid() {
		t.Error("negative processing sample valid")
	}
}

func TestOffsetMathAgainstClosedForm(t *testing.T) {
	// Check Sample.Offset against the paper's formulas written out
	// longhand: td = 0.5*(tc4 - (tc1+ts3-ts2)); ts4 = ts3 + td.
	s := Sample{
		TC1: FromMillis(1000),
		TS2: FromMillis(5007),
		TS3: FromMillis(5009),
		TC4: FromMillis(1016),
	}
	td := time.Duration(s.TC4-(s.TC1+(s.TS3-s.TS2))) / 2
	ts4 := s.TS3.Add(td)
	want := time.Duration(ts4 - s.TC4)
	if got := s.Offset(); got != want {
		t.Errorf("Offset = %v, want %v", got, want)
	}
	if math.Abs(float64(td-7*time.Millisecond)) > float64(time.Microsecond) {
		t.Errorf("td = %v, want 7ms", td)
	}
}
