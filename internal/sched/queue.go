// Package sched implements the PoEm server's forwarding schedule
// (paper §3.2, steps 4–6): packets that survived the link model's drop
// decision are queued with their computed departure time t_forward; a
// scanning goroutine watches the schedule and fires a sender the moment
// the emulation clock reaches each departure.
//
// The schedule is one binary heap (HeapQueue) delivering items in
// (Due, push-order) sequence. It won the A1 measurement against an
// insertion-sorted list and a timing wheel at every schedule depth the
// benchmark reaches (EXPERIMENTS.md); the list survives in
// queue_test.go as the oracle the heap's property tests compare
// against.
package sched

import (
	"repro/internal/radio"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Item is one scheduled departure: forward packet Pkt to client To at
// emulation time Due.
type Item struct {
	Due vclock.Time
	To  radio.NodeID
	Pkt wire.Packet

	// Trace carries the packet's obs trace-slot handle through the
	// schedule (0 = untraced). A broadcast attaches it only to the first
	// scheduled target, so exactly one delivery completes the record.
	Trace uint32

	seq uint64 // assigned by the queue; stabilizes equal-Due ordering
}

// HeapQueue is the time-ordered schedule: a binary min-heap on
// (Due, seq). It is not safe for concurrent use; the Scanner serializes
// access. The sift loops are hand-rolled over []Item rather than going
// through container/heap: the standard interface passes elements as
// interface{} values, which boxes a ~100-byte Item onto the heap on
// every Push *and* every Pop — two allocations per scheduled packet on
// the hottest path the server has. The manual version moves Items in
// place and allocates only when the backing slice grows.
type HeapQueue struct {
	h    []Item
	next uint64
}

// NewHeap returns an empty HeapQueue.
func NewHeap() *HeapQueue { return &HeapQueue{} }

// less orders the heap by (Due, seq): due time first, push order as the
// tie-break so equal departures fire in FIFO order.
func (q *HeapQueue) less(i, j int) bool {
	if q.h[i].Due != q.h[j].Due {
		return q.h[i].Due < q.h[j].Due
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

// Push inserts an item.
func (q *HeapQueue) Push(it Item) {
	it.seq = q.next
	q.next++
	q.h = append(q.h, it)
	q.siftUp(len(q.h) - 1)
}

// PopDue removes and returns the earliest item whose Due ≤ now.
func (q *HeapQueue) PopDue(now vclock.Time) (Item, bool) {
	if len(q.h) == 0 || q.h[0].Due > now {
		return Item{}, false
	}
	it := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = Item{} // release payload memory
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return it, true
}

// PopDueBatch removes up to len(buf) due items into buf and returns how
// many it wrote. The sequence written is exactly what repeated PopDue
// calls would have yielded — (Due, seq) order preserved — so the batch
// scanner drains a burst in one lock acquisition without changing fire
// order. Each pop is one sift-down; there is no cheaper bulk extraction
// from a binary heap, so the batch win is purely the caller's — one
// lock cycle for the whole run of due items.
func (q *HeapQueue) PopDueBatch(now vclock.Time, buf []Item) int {
	n := 0
	for n < len(buf) {
		it, ok := q.PopDue(now)
		if !ok {
			break
		}
		buf[n] = it
		n++
	}
	return n
}

// NextDue reports the earliest departure time, if any.
func (q *HeapQueue) NextDue() (vclock.Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Due, true
}

// Len returns the number of queued items.
func (q *HeapQueue) Len() int { return len(q.h) }
