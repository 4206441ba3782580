package sched

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
	"repro/internal/wire"
)

// DefaultFireBatch is how many due items — deliveries, however few heap
// entries they share — the scanner drains from the schedule per lock
// acquisition. The batch buffer is allocated once at Start (256 × 80 B =
// 20 KiB per shard); past a few hundred items a deeper batch only grows
// the buffer without amortizing anything further.
const DefaultFireBatch = 256

// scannerAwake is the sleepDue sentinel for "not sleeping": the scanner
// is in its fire loop and will re-read the schedule before parking, so
// a racing PushFan must deliver its kick.
const scannerAwake = math.MinInt64

// Scanner is the paper's "scanning thread" (§3.2 step 5): it watches
// the schedule and, as the emulation clock reaches each departure time,
// hands the due items to the fire function (which queues the sends for
// the sessions' writers, step 6). PushFan may be called from any number of
// scheduling goroutines; an early-deadline push wakes the scanner so a
// newly scheduled packet can overtake a sleeping later one.
//
// The hot loop is batch-shaped: one lock acquisition drains every due
// item into a reusable buffer (HeapQueue.PopDueBatch) and one fire call
// takes the whole batch outside the lock, so a storm of n due departures
// costs ~n/batch lock cycles instead of 2n, and the receiving side can
// amortize its own per-call costs over the batch too. Sleeping allocates
// nothing and spawns no goroutine (vclock.Waiter), and a PushFan whose
// deadline does not beat the one the scanner is already sleeping toward
// elides its wakeup entirely (kick elision — see maybeKick).
type Scanner struct {
	clk vclock.WaitClock
	// fire takes each non-empty batch with the clock reading that popped
	// it — the real-time fidelity monitor reads batch[0].Due against now,
	// reusing the fire loop's own clock read so deadline accounting costs
	// zero extra Now calls.
	fire   func(now vclock.Time, batch []Item)
	waiter vclock.Waiter

	mu sync.Mutex
	// q is held by value, next to the lock that guards it: its header is
	// written on every push and pop, and as a separate small allocation
	// it shared a cache line with whatever the allocator placed beside it
	// (bench storm_inproc: +14 % CPU per delivery).
	q    HeapQueue
	stop chan struct{}
	done chan struct{}

	// sleepDue publishes the deadline the scanner is currently sleeping
	// toward (vclock.Max while idle, scannerAwake while firing). It is
	// stored inside the same critical section that read NextDue, so a
	// PushFan serialized after that section reads a value consistent with
	// what the scanner saw — the invariant kick elision rests on.
	sleepDue atomic.Int64

	// inFlight counts items popped from the schedule whose fire call has
	// not returned yet. Pending adds it to the queue depth, so
	// "Pending()==0" still means every fired item has fully left the
	// scanner — without it a drain check could observe an empty queue
	// while a batch is still on its way to the session queues.
	inFlight   atomic.Int64
	dispatched atomic.Uint64

	// stats (see ScannerStats)
	batches        atomic.Uint64
	wakeups        atomic.Uint64
	spuriousWakes  atomic.Uint64
	kicksDelivered atomic.Uint64
	kicksElided    atomic.Uint64
	fireLocks      atomic.Uint64
	pushLocks      atomic.Uint64
}

// ScannerStats is a snapshot of the scanner's hot-loop accounting. The
// lock counters exist so benchmarks can report lock acquisitions per
// fired item — the quantity batching is meant to shrink — without
// instrumenting sync.Mutex itself.
type ScannerStats struct {
	Dispatched     uint64 // items fired
	Batches        uint64 // non-empty fire batches (Dispatched/Batches = mean depth)
	Wakeups        uint64 // sleeps that returned, for any reason
	SpuriousWakes  uint64 // wakeups that found nothing due
	KicksDelivered uint64 // pushes that woke (or would wake) the scanner
	KicksElided    uint64 // pushes whose deadline lost to the slept-on one
	FireLocks      uint64 // scanner-side lock acquisitions (pop + sleep setup)
	PushLocks      uint64 // producer-side lock acquisitions (PushFan)
}

// NewScanner builds a scanner over an empty schedule. fire is invoked
// on the scanner goroutine once per non-empty batch of due items, with
// the emulation-clock reading that popped them. The batch is the
// scanner's reusable buffer, sorted by (Due, seq): fire must not retain
// it, and it must hand long work off (the server gives each session a
// dedicated writer, per the paper) — anything slow delays every
// delivery behind it.
func NewScanner(clk vclock.WaitClock, fire func(now vclock.Time, batch []Item)) *Scanner {
	s := &Scanner{
		clk:    clk,
		fire:   fire,
		waiter: vclock.NewWaiter(clk),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.sleepDue.Store(scannerAwake)
	return s
}

// Start launches the scanning goroutine.
func (s *Scanner) Start() {
	go s.run()
}

// Stop terminates the scanner and waits for it to exit. Items still
// queued are abandoned (the emulation is over).
func (s *Scanner) Stop() {
	select {
	case <-s.stop:
		return // already stopped
	default:
	}
	close(s.stop)
	s.waiter.Wake()
	<-s.done
}

// Drain removes every item still queued, invoking fn on each, and
// returns how many were drained. Call it only after Stop (or before
// Start): abandoned items can carry pooled packet buffers, and
// something must settle them or a clean shutdown would leak
// what the emulation never got to send.
func (s *Scanner) Drain(fn func(Item)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for {
		it, ok := s.q.PopDue(vclock.Max)
		if !ok {
			break
		}
		fn(it)
		n++
	}
	return n
}

// PushFan schedules one packet for every target under one lock
// acquisition with at most one wakeup, exactly as len(targets)
// single-receiver pushes in slice order would (HeapQueue.PushFan). It is
// the scanner's one push: a unicast is a fan of one.
func (s *Scanner) PushFan(pkt wire.Packet, targets []Target) {
	if len(targets) == 0 {
		return
	}
	earliest := targets[0].Due
	for _, t := range targets[1:] {
		if t.Due < earliest {
			earliest = t.Due
		}
	}
	s.mu.Lock()
	s.pushLocks.Add(1)
	s.q.PushFan(pkt, targets)
	s.mu.Unlock()
	s.maybeKick(earliest)
}

// maybeKick wakes the scanner after a push, unless the pushed deadline
// cannot change what the scanner does next: while it sleeps toward D,
// an item due at or after D will be picked up by the D wakeup's
// schedule re-read anyway, so the kick is elided. While awake
// (scannerAwake) the scanner may be about to park on a stale NextDue,
// so the kick must be delivered; stale reads of sleepDue are possible
// only in that direction (see the sleepDue comment), which makes
// elision safe and over-kicking the worst case.
func (s *Scanner) maybeKick(due vclock.Time) {
	if d := s.sleepDue.Load(); d != scannerAwake && vclock.Time(d) <= due {
		s.kicksElided.Add(1)
		return
	}
	s.kicksDelivered.Add(1)
	s.waiter.Wake()
}

// Pending returns the current schedule depth, counting the items of a
// popped batch until its fire call returns.
func (s *Scanner) Pending() int {
	s.mu.Lock()
	n := s.q.Len() + int(s.inFlight.Load())
	s.mu.Unlock()
	return n
}

// Stats snapshots the scanner's hot-loop counters. Lock-free.
func (s *Scanner) Stats() ScannerStats {
	return ScannerStats{
		Dispatched:     s.dispatched.Load(),
		Batches:        s.batches.Load(),
		Wakeups:        s.wakeups.Load(),
		SpuriousWakes:  s.spuriousWakes.Load(),
		KicksDelivered: s.kicksDelivered.Load(),
		KicksElided:    s.kicksElided.Load(),
		FireLocks:      s.fireLocks.Load(),
		PushLocks:      s.pushLocks.Load(),
	}
}

func (s *Scanner) run() {
	defer close(s.done)
	batch := make([]Item, DefaultFireBatch)
	woke := false
	for {
		// Fire everything due, one batch per lock cycle. inFlight and
		// dispatched commit inside the critical section that popped the
		// items, so Pending and Stats readers never observe the gap.
		first := true
		for {
			now := s.clk.Now()
			s.mu.Lock()
			s.fireLocks.Add(1)
			n := s.q.PopDueBatch(now, batch)
			if n > 0 {
				s.inFlight.Add(int64(n))
				s.dispatched.Add(uint64(n))
			}
			s.mu.Unlock()
			if n == 0 {
				if woke && first {
					s.spuriousWakes.Add(1)
				}
				break
			}
			first = false
			s.batches.Add(1)
			s.fire(now, batch[:n])
			clear(batch[:n]) // release payload memory
			s.inFlight.Add(-int64(n))
		}
		select {
		case <-s.stop:
			return
		default:
		}
		// Sleep until the next departure or a kick. sleepDue is stored
		// under the same lock that read NextDue: any push serialized
		// after this section sees the fresh deadline and may elide; any
		// push serialized before it is already inside `next`.
		s.mu.Lock()
		s.fireLocks.Add(1)
		next, ok := s.q.NextDue()
		if !ok {
			next = vclock.Max // idle: only a push or Stop ends this sleep
		}
		s.sleepDue.Store(int64(next))
		s.mu.Unlock()
		s.waiter.Wait(next)
		s.sleepDue.Store(scannerAwake)
		s.wakeups.Add(1)
		woke = true
		select {
		case <-s.stop:
			return
		default:
		}
	}
}
