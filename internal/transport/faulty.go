package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/wire"
)

// Faulty wraps a Conn with injected impairments — fixed delays on each
// direction, probabilistic drops, duplicates and reorders on the send
// direction, or a hard error after N messages reach the wire. Tests,
// the clock-sync asymmetry experiment (E6) and the chaos harness
// (internal/chaos) use it; the emulated wireless impairments live in
// linkmodel, not here (this is the *real* client↔server LAN, which the
// paper assumes fast but which we still want to stress).
//
// The exported fields may be set freely between NewFaulty and the first
// use of the connection; once traffic flows, change them only through
// the Set* methods (they synchronize with in-flight Sends). All dice
// share one seeded source, so a fixed seed and a fixed call sequence
// produce the same impairment decisions.
type Faulty struct {
	inner Conn

	// SendDelay and RecvDelay stall each direction (wall time).
	SendDelay, RecvDelay time.Duration
	// DropProb silently discards matching sends with this probability.
	DropProb float64
	// DupProb transmits a matching send twice with this probability.
	// Each copy — the original and the duplicate — rolls the drop die
	// independently, so under loss a duplicated send can lose either
	// copy or both.
	DupProb float64
	// ReorderProb holds a matching send back with this probability; the
	// held message is transmitted right after the next matching send,
	// swapping the pair's wire order. At most one message is held; call
	// Flush to release a held message when no further sends will come.
	ReorderProb float64
	// FailAfter, when positive, makes Send return ErrClosed after that
	// many messages have actually been passed to the wrapped connection
	// (connection-death injection). Dropped and held sends do not
	// consume FailAfter credit: the counter tracks the wire, not the
	// caller — a DropProb=1 connection never dies of FailAfter. (It
	// previously counted every Send call, so expressing "the link dies
	// after N real messages" under loss was impossible.)
	FailAfter int
	// Match selects which messages the drop/dup/reorder dice apply to;
	// nil matches everything. The chaos harness matches *wire.Data so
	// handshake and clock-sync traffic stays reliable.
	Match func(wire.Msg) bool

	mu    sync.Mutex
	rng   *rand.Rand
	wired int       // messages actually passed to inner.Send
	held  *wire.Msg // reorder hold-back slot
	stats FaultyStats
}

// FaultyStats counts what the impairment layer did to matching
// messages. Wired is the ground truth for accounting across the wrapped
// connection: every matching message the peer can ever receive is
// counted there exactly once (duplicates count twice, drops and
// still-held messages not at all).
type FaultyStats struct {
	Sends      uint64 // matching Send calls that returned nil
	Wired      uint64 // matching messages actually transmitted
	Dropped    uint64 // caller messages lost entirely (no copy reached the wire); at most 1 per Send, even when a duplicate died in the same dice roll
	Duplicated uint64 // extra copies transmitted by DupProb (transmits beyond the first for one send)
	Reordered  uint64 // held messages released behind a later send
	Held       uint64 // messages currently in the hold-back slot (0 or 1)
}

// NewFaulty wraps inner. seed feeds the impairment dice.
func NewFaulty(inner Conn, seed int64) *Faulty {
	return &Faulty{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SetImpairments changes the drop/duplicate/reorder probabilities at
// runtime.
func (f *Faulty) SetImpairments(drop, dup, reorder float64) {
	f.mu.Lock()
	f.DropProb, f.DupProb, f.ReorderProb = drop, dup, reorder
	f.mu.Unlock()
}

// SetMatch changes the impairment filter at runtime.
func (f *Faulty) SetMatch(match func(wire.Msg) bool) {
	f.mu.Lock()
	f.Match = match
	f.mu.Unlock()
}

// Stats returns a snapshot of the impairment counters.
func (f *Faulty) Stats() FaultyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// transmitLocked ships one message on the wrapped connection, charging
// FailAfter credit. Callers hold f.mu. Like Conn.Send, it consumes
// pooled messages on every path — the FailAfter branch never reaches
// inner.Send, so it must retire the message itself.
func (f *Faulty) transmitLocked(m wire.Msg) error {
	if f.FailAfter > 0 && f.wired >= f.FailAfter {
		f.inner.Close()
		wire.ReleaseMsg(m)
		return ErrClosed
	}
	if err := f.inner.Send(m); err != nil {
		return err
	}
	f.wired++
	return nil
}

// Send implements Conn. Matching messages roll the drop, duplicate and
// reorder dice in that order; at most one message is ever held back,
// and it is released immediately after the next matching transmit.
func (f *Faulty) Send(m wire.Msg) error {
	f.mu.Lock()
	delay := f.SendDelay
	matched := f.Match == nil || f.Match(m)
	if !matched {
		err := f.transmitLocked(m)
		f.mu.Unlock()
		f.sleep(delay)
		return err
	}
	// Per-copy loss: the caller's message and (when the dup die fires)
	// its duplicate each roll the drop die independently — a duplicated
	// send can lose either copy, or both. Dropped counts caller messages
	// lost *entirely*: when the duplicate dies in the same dice roll as
	// the original, that is still one lost message, not two (the
	// interaction the old accounting double-counted). Duplicated counts
	// transmits beyond the first for one send, so a duplicate standing
	// in for a dropped original is not "extra".
	drop := f.DropProb > 0 && f.rng.Float64() < f.DropProb
	dup := f.DupProb > 0 && f.rng.Float64() < f.DupProb
	if dup && f.DropProb > 0 && f.rng.Float64() < f.DropProb {
		dup = false // the duplicate copy was cut down before the wire
	}
	if drop {
		if !dup {
			// Every copy died: silently lost, like a cut cable
			// mid-datagram.
			f.stats.Dropped++
			f.stats.Sends++
			f.mu.Unlock()
			f.sleep(delay)
			wire.ReleaseMsg(m) // lost messages still consume their buffer
			return nil
		}
		// The original copy died but its duplicate survived: transmit m
		// once, standing in for the original. The caller's message
		// reached the wire, so it is neither Dropped nor an extra copy.
		dup = false
	}
	if f.ReorderProb > 0 && f.held == nil && f.rng.Float64() < f.ReorderProb {
		// Hold m; it will follow the next matching send out. The hold-back
		// slot owns the message (and its buffer reference) until then.
		held := m
		f.held = &held
		f.stats.Sends++
		f.stats.Held = 1
		f.mu.Unlock()
		f.sleep(delay)
		return nil
	}
	// The duplicate copy must exist before the first transmit: Send
	// consumes pooled messages, so re-sending the same pointer would
	// transmit a retired buffer.
	var dupMsg wire.Msg
	if dup {
		if d, ok := m.(*wire.Data); ok {
			d.Pkt.Buf.Retain(1)
			dupMsg = wire.AcquireData(d.Pkt)
		} else {
			dupMsg = m // notifications are never pooled; the pointer is reusable
		}
	}
	err := f.transmitLocked(m)
	if err == nil {
		f.stats.Sends++
		f.stats.Wired++
		if dup {
			if derr := f.transmitLocked(dupMsg); derr == nil {
				f.stats.Wired++
				f.stats.Duplicated++
			}
		}
		if f.held != nil {
			if herr := f.transmitLocked(*f.held); herr == nil {
				f.stats.Wired++
				f.stats.Reordered++
			}
			f.held = nil
			f.stats.Held = 0
		}
	} else if dup && dupMsg != m {
		wire.ReleaseMsg(dupMsg) // first transmit failed; retire the unused copy
	}
	f.mu.Unlock()
	f.sleep(delay)
	return err
}

// Flush transmits a held (reordered) message, if any. Call it when no
// further sends will release the hold-back slot — e.g. before draining
// the peer at a chaos quiesce point.
func (f *Faulty) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.held == nil {
		return nil
	}
	m := *f.held
	f.held = nil
	f.stats.Held = 0
	if err := f.transmitLocked(m); err != nil {
		return err
	}
	f.stats.Wired++
	return nil
}

func (f *Faulty) sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Recv implements Conn. The receive direction only delays: it never
// drops or reorders, so the wrapped side's FIFO guarantees survive.
func (f *Faulty) Recv() (wire.Msg, error) {
	m, err := f.inner.Recv()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	delay := f.RecvDelay
	f.mu.Unlock()
	f.sleep(delay)
	return m, nil
}

// Close implements Conn. A message still parked in the reorder
// hold-back slot is retired here — nothing else will ever transmit it.
func (f *Faulty) Close() error {
	f.mu.Lock()
	if f.held != nil {
		wire.ReleaseMsg(*f.held)
		f.held = nil
		f.stats.Held = 0
	}
	f.mu.Unlock()
	return f.inner.Close()
}

// Label implements Conn.
func (f *Faulty) Label() string { return "faulty(" + f.inner.Label() + ")" }
