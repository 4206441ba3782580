package gateway

import (
	"sync"
	"time"

	"repro/internal/mbuf"
	"repro/internal/ring"
)

// egressEntry is one datagram waiting to leave through the real socket.
// The entry owns one reference of buf until the writer (or a drop path)
// settles it.
type egressEntry struct {
	buf *mbuf.Buf // Bytes() is the exact datagram (header + payload)
	at  time.Time // wall-clock enqueue instant, for the deadline pacer
}

// egressQueue is a bounded FIFO ring between a link's delivery callback
// (the emulation client's receive goroutine) and its socket writer.
// Overflow drops the oldest entry — by the time the ring is full the
// stalest datagram is the least worth delivering to a real-time
// consumer, the same policy the per-session send queues use on the
// emulated side (internal/core/outbound.go).
type egressQueue struct {
	mu     sync.Mutex
	nonEmp sync.Cond
	ring   ring.Ring[egressEntry]
	limit  int // hard bound on ring.Len()
	closed bool
}

func newEgressQueue(depth int) *egressQueue {
	q := &egressQueue{limit: depth}
	q.nonEmp.L = &q.mu
	return q
}

// push enqueues e, evicting the oldest entry when full. It returns the
// evicted entry's buffer for the caller to settle (nil when nothing was
// evicted) and whether the push was accepted (false after close — the
// caller keeps ownership of e.buf).
func (q *egressQueue) push(e egressEntry) (evicted *mbuf.Buf, ok bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, false
	}
	if q.ring.Len() == q.limit {
		evicted = q.ring.At(0).buf
		q.ring.Drop()
	}
	*q.ring.Push() = e
	q.nonEmp.Signal()
	q.mu.Unlock()
	return evicted, true
}

// pop dequeues the oldest entry, blocking until one arrives or the
// queue closes. ok is false only at close-with-empty — the writer's
// exit condition.
func (q *egressQueue) pop() (egressEntry, bool) {
	q.mu.Lock()
	for q.ring.Len() == 0 && !q.closed {
		q.nonEmp.Wait()
	}
	if q.ring.Len() == 0 {
		q.mu.Unlock()
		return egressEntry{}, false
	}
	e := *q.ring.At(0)
	q.ring.Drop()
	q.mu.Unlock()
	return e, true
}

// close stops the queue. Entries still queued are returned for the
// caller to settle (their deliveries are abandoned).
func (q *egressQueue) close() []egressEntry {
	q.mu.Lock()
	q.closed = true
	var left []egressEntry
	for q.ring.Len() > 0 {
		left = append(left, *q.ring.At(0))
		q.ring.Drop()
	}
	q.nonEmp.Broadcast()
	q.mu.Unlock()
	return left
}

func (q *egressQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.Len()
}
