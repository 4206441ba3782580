// Package ring is the FIFO storage of the server's queues: a session's
// send queue, each direction of an in-process pipe, a gateway link's
// egress queue and the schedule's in-order run. Each owner keeps its own
// lock, its own wake-up and its own bound, checked against Len; the ring
// only stores entries in order.
package ring

// Ring is a first-in first-out sequence of T in a circular buffer whose
// size is a power of two, so a slot index wraps with a mask. The buffer
// starts at one slot on the first Push and doubles when full: a queue
// costs the depth it has actually used, and under an owner's bound b it
// stops growing at the first power of two no smaller than b. The zero
// value is an empty ring. A Ring is not safe for concurrent use.
//
// Every slot outside the live entries is zero: Drop zeroes the slot it
// frees and growth copies only the live ones. A ring of pointer-bearing
// entries therefore never keeps a dropped entry's referents reachable —
// a pooled buffer released by its owner is not pinned here — and Push
// hands out a zeroed slot.
type Ring[T any] struct {
	buf  []T
	head int // slot of the front entry
	n    int // live entries
}

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th entry from the front: At(0) is the oldest,
// At(Len()-1) the newest. The pointer is valid until the next Push or
// Drop. It panics unless 0 ≤ i < Len().
func (r *Ring[T]) At(i int) *T {
	if uint(i) >= uint(r.n) {
		panic("ring: index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Push appends a zero entry at the back and returns it for the caller to
// fill in place, growing the buffer if it is full. The pointer is valid
// until the next Push or Drop.
func (r *Ring[T]) Push() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	p := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return p
}

// grow doubles the buffer, unrolling the entries to start at slot 0. It
// is out of line so that Push stays small enough to inline.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 1))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// Drop zeroes the front entry and discards it. It panics on an empty
// ring.
func (r *Ring[T]) Drop() {
	var zero T
	*r.At(0) = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}
