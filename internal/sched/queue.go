// Package sched implements the PoEm server's forwarding schedule
// (paper §3.2, steps 4–6): packets that survived the link model's drop
// decision are queued with their computed departure time t_forward; a
// scanning goroutine watches the schedule and fires a sender the moment
// the emulation clock reaches each departure.
//
// The schedule is a binary heap (HeapQueue) beside an in-order run,
// delivering items in (Due, push-order) sequence. Its unit is a
// transmission, not a delivery: an entry holds the packet once and the
// run of receivers that hear it at the same instant, so a broadcast to
// 36 neighbours is one sift up and one sift down instead of 36 of each,
// and the pop side turns entries back into one Item per receiver. The
// heap won the A1 measurement against an insertion-sorted list and a
// timing wheel at every schedule depth the benchmark reaches
// (EXPERIMENTS.md); the list survives in queue_test.go as the oracle
// the heap's property tests compare against.
//
// The in-order run is what the list was good at without what sank it.
// Under a constant-delay, constant-bandwidth link every flow's dues
// arrive non-decreasing, so a push is often no earlier than the latest
// one queued (two in three on the benchmark's unicast_tcp, where two
// such flows interleave). Such a push is appended to a FIFO ring in
// O(1), and a pop takes the run's head in O(1) where the heap would sift
// its newest entry down all log₂ n levels under the scanner's lock. The
// list lost A1 because a push in the middle moved every later item; the
// run takes only pushes at its tail and sends every other push to the
// heap, so it never moves an entry and its worst case is the heap's plus
// one compare per pop (EXPERIMENTS.md A23).
package sched

import (
	"repro/internal/radio"
	"repro/internal/ring"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Item is one scheduled departure: forward packet Pkt to client To at
// emulation time Due. It is what goes into Push and what every pop
// yields, one per receiver.
type Item struct {
	Due vclock.Time
	To  radio.NodeID
	Pkt wire.Packet
}

// Target is one receiver of a transmission listed with PushFan: who
// hears the packet, and when.
type Target struct {
	To  radio.NodeID
	Due vclock.Time
}

// entry is the schedule's element: one packet due at one instant for a run
// of receivers. to is the first receiver; a run longer than one keeps the
// others behind rest, so a transmission to one receiver is no larger
// than the packet, its due time and its sequence number.
type entry struct {
	due  vclock.Time
	seq  uint64 // assigned by the queue; stabilizes equal-due ordering
	pkt  wire.Packet
	to   radio.NodeID
	rest *fanRest
}

// fanRest is the rest of a fan: the receivers after the first, in fire
// order, and how many of the fan's receivers have been popped. The
// cursor lives here, not in the caller, because a pop may stop mid-run
// (the batch buffer filled) and what is left must wait its turn behind
// anything earlier that was pushed in between.
type fanRest struct {
	to  []radio.NodeID
	cur int
}

// HeapQueue is the time-ordered schedule: a binary min-heap on
// (due, seq) and an in-order run beside it. It is not safe for
// concurrent use; the Scanner serializes access. The sift loops are
// hand-rolled over []entry rather than going through container/heap:
// the standard interface passes elements as interface{} values, which
// boxes an 88-byte entry onto the heap on every Push *and* every Pop —
// two allocations per scheduled packet on the hottest path the server
// has. The manual version moves entries in place and allocates only when
// a backing slice grows.
//
// Every entry lives in exactly one of the two structures for its whole
// life, and both hand out sequence numbers from the one next counter, so
// taking the smaller head by (due, seq) fires exactly the order one heap
// would.
type HeapQueue struct {
	h []entry
	// run is the in-order run: entries sorted by (due, seq) from head to
	// tail. A push no earlier than the tail joins it; every other push
	// goes to h.
	run  ring.Ring[entry]
	next uint64
	n    int // receivers not yet popped, over all entries
	// spare holds the fanRests of exhausted entries for the next fan, so
	// a steady stream of broadcasts allocates nothing.
	spare []*fanRest
}

// NewHeap returns an empty HeapQueue.
func NewHeap() *HeapQueue { return &HeapQueue{} }

// less orders the heap by (due, seq): due time first, push order as the
// tie-break so equal departures fire in FIFO order.
func (q *HeapQueue) less(i, j int) bool {
	if q.h[i].due != q.h[j].due {
		return q.h[i].due < q.h[j].due
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *HeapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *HeapQueue) siftDown(i int) {
	n := len(q.h)
	for {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}

// add places a transmission of pkt to n receivers — to first, then rest
// — under the next sequence number: at the tail of the run if its due is
// no earlier than the tail's (or the run is empty), in the heap
// otherwise. The entry is built in its slot: a by-value helper would
// copy the packet twice more per push.
func (q *HeapQueue) add(due vclock.Time, pkt *wire.Packet, to radio.NodeID, rest *fanRest, n int) {
	seq := q.next
	q.next++
	q.n += n
	if q.run.Len() == 0 || due >= q.run.At(q.run.Len()-1).due {
		*q.run.Push() = entry{due: due, seq: seq, pkt: *pkt, to: to, rest: rest}
		return
	}
	q.h = append(q.h, entry{due: due, seq: seq, pkt: *pkt, to: to, rest: rest})
	q.siftUp(len(q.h) - 1)
}

// Push inserts an item: a transmission with one receiver.
func (q *HeapQueue) Push(it Item) {
	q.add(it.Due, &it.Pkt, it.To, nil, 1)
}

// PushFan lists one packet for every target, indistinguishable from
// len(targets) Push calls in slice order. Each maximal run of
// consecutive targets with the same Due becomes one entry; a target
// whose Due differs from its predecessor's starts the next. Targets are
// never sorted or regrouped: among equal dues that would change the
// fire order sequential pushes produce.
func (q *HeapQueue) PushFan(pkt wire.Packet, targets []Target) {
	for i := 0; i < len(targets); {
		due := targets[i].Due
		j := i + 1
		for j < len(targets) && targets[j].Due == due {
			j++
		}
		var rest *fanRest
		if j > i+1 {
			if k := len(q.spare); k > 0 {
				rest, q.spare = q.spare[k-1], q.spare[:k-1]
			} else {
				rest = new(fanRest)
			}
			for _, t := range targets[i+1 : j] {
				rest.to = append(rest.to, t.To)
			}
		}
		q.add(due, &pkt, targets[i].To, rest, j-i)
		i = j
	}
}

// head returns the entry that fires next — the run's head or the heap's
// root, whichever is earlier by (due, seq) — and whether it is the
// run's; nil if the schedule is empty. A due tie goes to the run: an
// entry joins the heap only while the run holds a later tail, and the
// tail pops only after everything due before it, so the heap is empty
// whenever the run is and every run entry due at the heap root's
// instant was pushed before it.
func (q *HeapQueue) head() (e *entry, inRun bool) {
	if q.run.Len() > 0 {
		e, inRun = q.run.At(0), true
	}
	if len(q.h) > 0 && (e == nil || q.h[0].due < e.due) {
		return &q.h[0], false
	}
	return e, inRun
}

// pop yields the next receiver of e, the head entry, and retires the
// entry with its last one.
func (q *HeapQueue) pop(e *entry, inRun bool, it *Item) {
	it.Due, it.Pkt, it.To = e.due, e.pkt, e.to
	q.n--
	if r := e.rest; r != nil {
		if r.cur > 0 {
			it.To = r.to[r.cur-1]
		}
		r.cur++
		if r.cur <= len(r.to) {
			return
		}
		r.to, r.cur = r.to[:0], 0
		q.spare = append(q.spare, r)
	}
	if inRun {
		q.run.Drop() // zeroes the slot: releases payload memory
		return
	}
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = entry{} // release payload memory
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(0)
	}
}

// PopDue removes and returns the earliest item whose Due ≤ now.
func (q *HeapQueue) PopDue(now vclock.Time) (Item, bool) {
	e, inRun := q.head()
	if e == nil || e.due > now {
		return Item{}, false
	}
	var it Item
	q.pop(e, inRun, &it)
	return it, true
}

// PopDueBatch removes up to len(buf) due items into buf and returns how
// many it wrote. The sequence written is exactly what repeated PopDue
// calls would have yielded — (Due, seq) order preserved — so the batch
// scanner drains a burst in one lock acquisition without changing fire
// order. A run of receivers that does not fit stays at the head, of the
// heap or of the in-order run, with its cursor advanced; the next call
// resumes it unless something earlier was pushed meanwhile.
func (q *HeapQueue) PopDueBatch(now vclock.Time, buf []Item) int {
	n := 0
	for n < len(buf) {
		e, inRun := q.head()
		if e == nil || e.due > now {
			break
		}
		q.pop(e, inRun, &buf[n])
		n++
	}
	return n
}

// NextDue reports the earliest departure time, if any.
func (q *HeapQueue) NextDue() (vclock.Time, bool) {
	e, _ := q.head()
	if e == nil {
		return 0, false
	}
	return e.due, true
}

// Len returns the number of queued items: deliveries, not entries.
func (q *HeapQueue) Len() int { return q.n }
