package fidelity

// The flight recorder: an always-on, lock-free ring of recent
// structured events. Writers are scanner goroutines and drop-path
// closures on the packet hot path, so Record must cost a handful of
// atomic stores and never take a lock or allocate. Readers (breach
// dumps, the debug endpoint) reconstruct a best-effort snapshot: a
// slot being overwritten mid-read is detected by its sequence stamp
// and skipped — losing one event under a racing wrap is fine for a
// diagnostic artifact, corrupting the dump is not.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// EventKind tags a flight-recorder event.
type EventKind uint8

const (
	// EvBatchFire: a scanner fired a batch. A = lag ns, B = batch size.
	EvBatchFire EventKind = iota + 1
	// EvDeadlineMiss: items in a batch were due more than the tolerance
	// ago. A = batch lag ns, B = missed count.
	EvDeadlineMiss
	// EvQueueDrop: the slow-client policy discarded a delivery.
	// A = session VMN id, B unused.
	EvQueueDrop
	// EvViewRebuild: the scene published a fresh dispatch view.
	// A = channel id, B = rows republished. Shard is -1 (scene is
	// server-wide).
	EvViewRebuild
	// EvStateTransition: a health state changed. A = from, B = to.
	// Shard -1 is the server-wide state.
	EvStateTransition
	// EvScannerWindow: an accounting window closed. A and B carry the
	// scanner's cumulative kick-elision and wakeup counters, so a dump
	// shows how the sleep/kick machinery behaved around an incident.
	EvScannerWindow
)

// String returns the kind's name as used in trace exports.
func (k EventKind) String() string {
	switch k {
	case EvBatchFire:
		return "batch_fire"
	case EvDeadlineMiss:
		return "deadline_miss"
	case EvQueueDrop:
		return "queue_drop"
	case EvViewRebuild:
		return "view_rebuild"
	case EvStateTransition:
		return "state_transition"
	case EvScannerWindow:
		return "scanner_window"
	default:
		return "unknown"
	}
}

// Event is one recorded occurrence. At is emulation ns; A and B are
// kind-specific payloads (see the EventKind docs).
type Event struct {
	Seq   uint64    `json:"seq"`
	Kind  EventKind `json:"kind"`
	Shard int       `json:"shard"` // -1 = server-wide
	At    int64     `json:"at"`
	A     int64     `json:"a"`
	B     int64     `json:"b"`
}

// slot is one ring entry. Every field is an atomic: writers on
// different goroutines may lap each other, and readers snapshot
// concurrently, so the whole protocol must be data-race-free under the
// race detector. seq doubles as the publication flag — 0 while a write
// is in flight, the claiming sequence once the fields are in place.
type slot struct {
	seq       atomic.Uint64
	kindShard atomic.Uint64 // kind<<32 | uint32(int32(shard))
	at        atomic.Int64
	a         atomic.Int64
	b         atomic.Int64
}

// Recorder is the fixed-size lock-free event ring.
type Recorder struct {
	mask  uint64
	next  atomic.Uint64 // last claimed sequence (0 = nothing recorded)
	slots []slot
}

// NewRecorder builds a ring holding size events, rounded up to a power
// of two (minimum 16).
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.slots) }

// Recorded returns how many events have ever been recorded (the ring
// keeps the most recent Cap of them).
func (r *Recorder) Recorded() uint64 { return r.next.Load() }

// Record appends one event. Lock-free and allocation-free: a sequence
// claim plus five atomic stores. Concurrent writers that lap the ring
// onto the same slot can tear each other's event; the stale seq makes
// the tear detectable, and a diagnostic ring sized thousands deep makes
// a same-slot race (one writer a full lap behind another, mid-write)
// practically unobservable.
func (r *Recorder) Record(kind EventKind, shard int, at, a, b int64) {
	seq := r.next.Add(1)
	s := &r.slots[seq&r.mask]
	s.seq.Store(0) // invalidate while the fields change
	s.kindShard.Store(uint64(kind)<<32 | uint64(uint32(int32(shard))))
	s.at.Store(at)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq)
}

// Snapshot copies the ring's published events, oldest first. Slots
// mid-write (or torn by a racing wrap) are skipped.
func (r *Recorder) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		ks := s.kindShard.Load()
		ev := Event{
			Seq:   seq,
			Kind:  EventKind(ks >> 32),
			Shard: int(int32(uint32(ks))),
			At:    s.at.Load(),
			A:     s.a.Load(),
			B:     s.b.Load(),
		}
		if s.seq.Load() != seq {
			continue // overwritten while reading the fields
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteTrace renders events as chrome://tracing "trace event format"
// JSON (load it in chrome://tracing or Perfetto). Batch fires become
// complete events spanning [due, fire] — the bar's length *is* the lag
// — everything else becomes an instant event. Rows (tids) are shards;
// server-wide events land on tid -1.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	for i, ev := range events {
		if i > 0 {
			bw.WriteByte(',')
		}
		// Timestamps are microseconds in the trace format; At is ns.
		switch ev.Kind {
		case EvBatchFire:
			// Span from when the batch was due to when it fired.
			fmt.Fprintf(bw,
				"{\"name\":%q,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"seq\":%d,\"lag_ns\":%d,\"batch\":%d}}",
				ev.Kind.String(), ev.Shard, (ev.At-ev.A)/1e3, ev.A/1e3, ev.Seq, ev.A, ev.B)
		default:
			fmt.Fprintf(bw,
				"{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"seq\":%d,\"a\":%d,\"b\":%d}}",
				ev.Kind.String(), ev.Shard, ev.At/1e3, ev.Seq, ev.A, ev.B)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
