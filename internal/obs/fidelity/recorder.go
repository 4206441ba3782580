package fidelity

// The flight recorder: an always-on, lock-free ring of recent
// structured events. Writers are scanner goroutines, drop-path
// closures and the stages of sampled packets (packets.go) on the packet
// hot path, so Record must cost a handful of
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

	// Packet-lifecycle stages of a sampled packet (packets.go). A is
	// always its PacketID.

	// EvPktIngest: the server received it. At = receipt, B = the
	// client's stamp after the clamp. Shard -1.
	EvPktIngest
	// EvPktResolve: dispatch resolved and the link model rolled.
	// B = kept<<32 | matched receivers. Shard -1.
	EvPktResolve
	// EvPktEnqueue: a scanner handed it to a receiver's send queue.
	// B = the receiver.
	EvPktEnqueue
	// EvPktSend: a session writer put it on the wire. B = the receiver.
	EvPktSend
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
	case EvPktIngest:
		return "pkt_ingest"
	case EvPktResolve:
		return "pkt_resolve"
	case EvPktEnqueue:
		return "pkt_enqueue"
	case EvPktSend:
		return "pkt_send"
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
// race detector. seq doubles as the publication flag and the writer's
// claim — 0 while never written, writing while one writer owns the
// fields, the event's sequence once they are in place.
type slot struct {
	seq       atomic.Uint64
	kindShard atomic.Uint64 // kind<<32 | uint32(int32(shard))
	at        atomic.Int64
	a         atomic.Int64
	b         atomic.Int64
}

// writing marks a slot whose fields a writer owns.
const writing = ^uint64(0)

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
// keeps the most recent Cap of them), counting the rare one dropped on
// a slot a lapped writer still held.
func (r *Recorder) Recorded() uint64 { return r.next.Load() }

// Record appends one event. Lock-free and allocation-free: a sequence
// claim, a compare-and-swap on the slot and five atomic stores.
func (r *Recorder) Record(kind EventKind, shard int, at, a, b int64) {
	r.publish(r.next.Add(1), uint64(kind)<<32|uint64(uint32(int32(shard))), at, a, b)
}

// publish writes event seq into its slot. A writer owns the slot's
// fields from its claim (seq → writing) to its publication, so no other
// writer can tear a published event and a reader that sees the same seq
// before and after copying the fields holds one whole event. A writer
// that finds its slot owned — by a writer a whole lap behind, still
// mid-write — drops its own event instead.
func (r *Recorder) publish(seq, kindShard uint64, at, a, b int64) {
	s := &r.slots[seq&r.mask]
	if old := s.seq.Load(); old == writing || !s.seq.CompareAndSwap(old, writing) {
		return
	}
	s.kindShard.Store(kindShard)
	s.at.Store(at)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq)
}

// Snapshot copies the ring's published events, oldest first. Slots
// mid-write, or rewritten while being copied, are skipped.
func (r *Recorder) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq == 0 || seq == writing {
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
// — and the other server events instant events; their rows (tids) are
// shards, with server-wide events on tid -1. Packet stage events are
// drawn as their lifecycles (pid 1, one row per source VMN): a
// "dispatch" span [ingest, resolve], then per receiver a "wait" span up
// to the enqueue and a "send" span up to the wire, each naming the
// packet and the receiver.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	sep := ""
	for _, ev := range events {
		// Timestamps are microseconds in the trace format; At is ns.
		switch {
		case ev.Kind >= EvPktIngest:
			continue // drawn below, as lifecycles
		case ev.Kind == EvBatchFire:
			// Span from when the batch was due to when it fired.
			fmt.Fprintf(bw,
				"%s{\"name\":%q,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"seq\":%d,\"lag_ns\":%d,\"batch\":%d}}",
				sep, ev.Kind.String(), ev.Shard, (ev.At-ev.A)/1e3, ev.A/1e3, ev.Seq, ev.A, ev.B)
		default:
			fmt.Fprintf(bw,
				"%s{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"seq\":%d,\"a\":%d,\"b\":%d}}",
				sep, ev.Kind.String(), ev.Shard, ev.At/1e3, ev.Seq, ev.A, ev.B)
		}
		sep = ","
	}
	span := func(name string, l *Lifecycle, to uint32, from, until int64) {
		if from == 0 || until == 0 {
			return // that stage is not in the ring
		}
		fmt.Fprintf(bw,
			"%s{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"pkt\":\"%d/%d\",\"to\":%d}}",
			sep, name, l.Src, from/1e3, (until-from)/1e3, l.Src, l.Seq, to)
		sep = ","
	}
	for _, l := range Lifecycles(events) {
		span("dispatch", &l, 0, l.Ingest, l.Resolve)
		for _, g := range l.Legs {
			span("wait", &l, g.To, l.Resolve, g.Enqueue)
			span("send", &l, g.To, g.Enqueue, g.Send)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
