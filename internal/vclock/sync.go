package vclock

import (
	"errors"
	"sync/atomic"
	"time"
)

// This file implements the lightweight emulation-clock synchronization
// scheme of the paper's §4.1 / Figure 5:
//
//	Step 1. client sends its local time tc1
//	Step 2. server receives at server time ts2
//	Step 3. server replies at ts3 carrying ts3 and (tc1 + ts3 - ts2)
//	Step 4. client receives the reply at local time tc4
//	Step 5. client computes td = 0.5*(tc4 - (tc1 + ts3 - ts2)) and
//	        estimates the current server clock as ts4 = ts3 + td
//	Step 6. client adopts ts4 as the emulation time
//
// Under the scheme's assumption of symmetric transport delay the
// estimate is exact; with asymmetric delays df (forward) and db (back)
// the estimation error is (df - db) / 2, which the tests verify.

// Sample is one completed synchronization exchange.
type Sample struct {
	TC1, TS2, TS3, TC4 Time
}

// RTT returns the round-trip time net of server processing.
func (s Sample) RTT() time.Duration {
	return time.Duration((s.TC4 - s.TC1) - (s.TS3 - s.TS2))
}

// Offset returns the estimated shift such that
// serverTime ≈ clientTime + Offset, per the Figure 5 arithmetic.
func (s Sample) Offset() time.Duration {
	td := time.Duration(s.TC4-(s.TC1+(s.TS3-s.TS2))) / 2 // Step 5
	ts4 := s.TS3.Add(td)
	return time.Duration(ts4 - s.TC4)
}

// Valid reports whether the sample is causally consistent (non-negative
// RTT and server processing time).
func (s Sample) Valid() bool {
	return s.TC4 >= s.TC1 && s.TS3 >= s.TS2 && s.RTT() >= 0
}

// ErrNoValidSample is returned by Synchronize when every exchange
// produced a causally inconsistent sample.
var ErrNoValidSample = errors.New("vclock: no valid synchronization sample")

// Exchanger performs one synchronization round trip: it ships tc1 to
// the server and returns the server's (ts2, ts3) pair. The transport
// layer provides the implementation; tests provide fakes with injected
// delays.
type Exchanger interface {
	Exchange(tc1 Time) (ts2, ts3 Time, err error)
}

// ExchangerFunc adapts a function to the Exchanger interface.
type ExchangerFunc func(tc1 Time) (ts2, ts3 Time, err error)

// Exchange implements Exchanger.
func (f ExchangerFunc) Exchange(tc1 Time) (Time, Time, error) { return f(tc1) }

// Synchronize runs `rounds` exchanges against the server through ex,
// stamping with the client's local clock, and returns the offset from
// the sample with the smallest RTT (the round least polluted by
// queueing). rounds < 1 is treated as 1.
func Synchronize(local Clock, ex Exchanger, rounds int) (time.Duration, Sample, error) {
	if rounds < 1 {
		rounds = 1
	}
	var (
		best    Sample
		bestOK  bool
		lastErr error
	)
	for i := 0; i < rounds; i++ {
		tc1 := local.Now() // Step 1
		ts2, ts3, err := ex.Exchange(tc1)
		if err != nil {
			lastErr = err
			continue
		}
		s := Sample{TC1: tc1, TS2: ts2, TS3: ts3, TC4: local.Now()} // Step 4
		if !s.Valid() {
			continue
		}
		if !bestOK || s.RTT() < best.RTT() {
			best, bestOK = s, true
		}
	}
	if !bestOK {
		if lastErr != nil {
			return 0, Sample{}, lastErr
		}
		return 0, Sample{}, ErrNoValidSample
	}
	return best.Offset(), best, nil
}

// Synced is a client's emulation clock: the local clock corrected by
// the last synchronized offset. The offset may be refreshed from a
// background resynchronization goroutine, so it is stored atomically.
// The zero offset means "trust the local clock".
type Synced struct {
	local  Clock
	offset atomic.Int64 // time.Duration
}

// NewSynced returns a Synced clock over the given local clock.
func NewSynced(local Clock) *Synced { return &Synced{local: local} }

// Now returns the corrected emulation time (Step 6: the client pushes
// its emulation clock forward from the estimated server time).
func (c *Synced) Now() Time {
	return c.local.Now().Add(time.Duration(c.offset.Load()))
}

// Resync runs one synchronization and installs the resulting offset.
func (c *Synced) Resync(ex Exchanger, rounds int) (Sample, error) {
	off, sample, err := Synchronize(c.local, ex, rounds)
	if err != nil {
		return Sample{}, err
	}
	c.offset.Store(int64(off))
	return sample, nil
}
