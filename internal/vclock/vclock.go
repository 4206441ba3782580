// Package vclock implements the emulation clock that PoEm's parallel
// time-stamping rests on, together with the lightweight client/server
// clock-synchronization scheme of the paper's Figure 5 (§4.1).
//
// All emulation timestamps are vclock.Time values: nanoseconds since an
// emulation epoch. The server's clock is the unique reference; every
// client estimates its offset from the server and stamps its own
// traffic against the estimated server clock, so stamping happens in
// parallel at the edges rather than serially at the server's single
// incoming interface.
//
// Two concrete clocks are provided:
//
//   - System: the wall clock, optionally time-scaled, used for real
//     emulation runs (a scale of 100 makes 1 s of emulated time pass in
//     10 ms of wall time, compressing long scenarios for tests).
//   - Manual: an explicitly advanced clock for deterministic tests.
//
// Anything that sleeps on emulation time — the forward scheduler's
// scanner waiting for the next packet's departure time, a Ticker, a
// traffic pump — does so through a Waiter built by NewWaiter.
package vclock

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Time is an instant on the emulation clock, in nanoseconds since the
// emulation epoch (the moment the server clock was created).
type Time int64

// Max is the latest representable instant — "after every deadline",
// used to drain time-ordered queues unconditionally.
const Max Time = 1<<63 - 1

// Common conversion helpers.
func FromDuration(d time.Duration) Time { return Time(d) }
func FromSeconds(s float64) Time        { return Time(s * float64(time.Second)) }
func FromMillis(ms int64) Time          { return Time(ms) * Time(time.Millisecond) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before and After order instants.
func (t Time) Before(u Time) bool { return t < u }
func (t Time) After(u Time) bool  { return t > u }

// String formats t as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Clock supplies the current emulation time.
type Clock interface {
	Now() Time
}

// WaitClock is a Clock that emulation-time sleepers can block on,
// through the Waiter NewWaiter builds for it. It is sealed: System,
// StallClock (both slept on by the wall waiter) and Manual (the manual
// waiter) are its only implementations.
type WaitClock interface {
	Clock
	newWaiter() Waiter
}

// System is a wall-clock-backed emulation clock. Emulation time is
// (wall - start) * scale, so scale > 1 compresses emulated time into
// less wall time. System is safe for concurrent use.
type System struct {
	start time.Time
	scale float64
}

// NewSystem returns a System clock starting at emulation time 0 now.
// scale must be positive; 1 means real time.
func NewSystem(scale float64) *System {
	if scale <= 0 {
		panic("vclock: scale must be positive")
	}
	return &System{start: time.Now(), scale: scale}
}

// Scale returns the clock's time-scale factor.
func (s *System) Scale() float64 { return s.scale }

// Now returns the current emulation time.
func (s *System) Now() Time {
	return Time(float64(time.Since(s.start)) * s.scale)
}

func (s *System) newWaiter() Waiter { return newWallWaiter(s) }

// sleepFor returns the wall time left until the clock reads t, at least
// a microsecond, or 0 once it does.
func (s *System) sleepFor(t Time) time.Duration {
	now := s.Now()
	if now >= t {
		return 0
	}
	rem := float64(t-now) / s.scale
	if rem >= float64(math.MaxInt64) {
		return math.MaxInt64 // Wait(Max): park ~forever
	}
	return max(time.Duration(rem), time.Microsecond)
}

// Manual is a deterministic clock advanced explicitly by tests. The
// zero value is ready to use and reads 0 until advanced. Manual is safe
// for concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     Time
	waiters []*manualWaiter // registered sleeps, fired by Set
}

// NewManual returns a Manual clock set to start.
func NewManual(start Time) *Manual { return &Manual{now: start} }

// Now returns the current manual time.
func (m *Manual) Now() Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Set moves the clock to t and wakes every waiter whose deadline it
// reaches. Moving backwards panics: emulation time is monotonic by
// construction and a reversal indicates a harness bug.
func (m *Manual) Set(t Time) {
	m.mu.Lock()
	if t < m.now {
		m.mu.Unlock()
		panic("vclock: manual clock moved backwards")
	}
	m.now = t
	var fired []*manualWaiter
	rest := m.waiters[:0]
	for _, w := range m.waiters {
		if w.deadline <= t {
			fired = append(fired, w)
		} else {
			rest = append(rest, w)
		}
	}
	m.waiters = rest
	m.mu.Unlock()
	for _, w := range fired {
		w.Wake()
	}
}

// Advance moves the clock forward by d.
func (m *Manual) Advance(d time.Duration) { m.Set(m.Now().Add(d)) }

func (m *Manual) newWaiter() Waiter {
	return &manualWaiter{m: m, wake: make(wake, 1)}
}

// Offset is a clock derived from a base clock plus a fixed shift. The
// Drifting wrapper below adds rate error; Offset models pure skew.
type Offset struct {
	Base  Clock
	Shift time.Duration
}

// Now returns the shifted time.
func (o Offset) Now() Time { return o.Base.Now().Add(o.Shift) }

// Drifting wraps a base clock with a rate error, modelling a client
// whose oscillator runs fast or slow relative to the server. Rate 1.0
// is perfect; 1.0001 gains 100 µs per second. Used for failure
// injection in clock-sync tests.
type Drifting struct {
	base   Clock
	rate   float64
	origin Time
}

// NewDrifting returns a clock that drifts away from base at the given
// rate, anchored so both clocks agree at the moment of creation.
func NewDrifting(base Clock, rate float64) *Drifting {
	return &Drifting{base: base, rate: rate, origin: base.Now()}
}

// Now returns the drifted time.
func (d *Drifting) Now() Time {
	elapsed := d.base.Now() - d.origin
	return d.origin + Time(float64(elapsed)*d.rate)
}

// StallClock wraps a System clock with a freeze switch, for fault
// injection. While stalled, Now returns the instant the stall began; on
// Resume the reading snaps back to the still-running inner clock, so
// emulated time leaps forward by the whole stall at once — the
// signature a host stall (GC pause, CPU starvation) leaves on a
// wall-clock-backed emulation. A waiter parked behind the freeze polls
// every stallPoll, so it observes the leap promptly.
type StallClock struct {
	inner *System

	mu      sync.Mutex
	stalled bool
	at      Time
}

// stallPoll is how often a waiter re-checks a stalled clock.
const stallPoll = 200 * time.Microsecond

// NewStallClock wraps inner, initially running.
func NewStallClock(inner *System) *StallClock { return &StallClock{inner: inner} }

// Stall freezes the clock at its current reading. Idempotent.
func (c *StallClock) Stall() {
	c.mu.Lock()
	if !c.stalled {
		c.stalled = true
		c.at = c.inner.Now()
	}
	c.mu.Unlock()
}

// Resume releases the freeze; the next Now leaps to the inner clock's
// reading. Idempotent.
func (c *StallClock) Resume() {
	c.mu.Lock()
	c.stalled = false
	c.mu.Unlock()
}

// Now returns the frozen instant while stalled, the inner reading
// otherwise.
func (c *StallClock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stalled {
		return c.at
	}
	return c.inner.Now()
}

func (c *StallClock) newWaiter() Waiter { return newWallWaiter(c) }

// sleepFor is the inner clock's while running. While stalled the target
// is unreachable until Resume, so the waiter polls.
func (c *StallClock) sleepFor(t Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.stalled:
		return c.inner.sleepFor(t)
	case c.at >= t:
		return 0
	default:
		return stallPoll
	}
}
