package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/radio"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// queue is what HeapQueue and its oracle have in common, so one table
// drives both through every property below.
type queue interface {
	Push(it Item)
	PopDue(now vclock.Time) (Item, bool)
	PopDueBatch(now vclock.Time, buf []Item) int
	NextDue() (vclock.Time, bool)
	Len() int
}

func queues() map[string]func() queue {
	return map[string]func() queue{
		"heap": func() queue { return NewHeap() },
		"list": func() queue { return NewList() },
	}
}

// ListQueue is the oracle: items in a slice sorted ascending by
// (Due, seq), the "queues for schedules" of the paper's preliminary
// implementation (§5). Its order is correct by construction — a binary
// search places each push, the due items are always a prefix — so the
// heap's PopDue/PopDueBatch are checked against it item for item. It
// knows nothing of fans: a PushFan is checked against the sequential
// pushes it must be indistinguishable from.
type ListQueue struct {
	items []Item
	seqs  []uint64 // seqs[i] is items[i]'s push order
	head  int
	next  uint64
}

func NewList() *ListQueue { return &ListQueue{} }

func (q *ListQueue) Push(it Item) {
	seq := q.next
	q.next++
	live, seqs := q.items[q.head:], q.seqs[q.head:]
	i := sort.Search(len(live), func(i int) bool {
		if live[i].Due != it.Due {
			return live[i].Due > it.Due
		}
		return seqs[i] > seq
	})
	q.items = append(q.items, Item{})
	copy(q.items[q.head+i+1:], q.items[q.head+i:])
	q.items[q.head+i] = it
	q.seqs = append(q.seqs, 0)
	copy(q.seqs[q.head+i+1:], q.seqs[q.head+i:])
	q.seqs[q.head+i] = seq
}

func (q *ListQueue) PopDue(now vclock.Time) (Item, bool) {
	if q.head >= len(q.items) || q.items[q.head].Due > now {
		return Item{}, false
	}
	it := q.items[q.head]
	q.items[q.head] = Item{}
	q.head++
	q.maybeCompact()
	return it, true
}

// PopDueBatch extracts the due prefix with one binary search and one
// copy.
func (q *ListQueue) PopDueBatch(now vclock.Time, buf []Item) int {
	live := q.items[q.head:]
	if len(live) == 0 || len(buf) == 0 || live[0].Due > now {
		return 0
	}
	k := sort.Search(len(live), func(i int) bool { return live[i].Due > now })
	if k > len(buf) {
		k = len(buf)
	}
	copy(buf, live[:k])
	for i := 0; i < k; i++ {
		live[i] = Item{}
	}
	q.head += k
	q.maybeCompact()
	return k
}

// maybeCompact reclaims the consumed prefix once it dominates the
// backing array.
func (q *ListQueue) maybeCompact() {
	if q.head > 256 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = Item{}
		}
		q.items = q.items[:n]
		q.seqs = q.seqs[:copy(q.seqs, q.seqs[q.head:])]
		q.head = 0
	}
}

func (q *ListQueue) NextDue() (vclock.Time, bool) {
	if q.head >= len(q.items) {
		return 0, false
	}
	return q.items[q.head].Due, true
}

func (q *ListQueue) Len() int { return len(q.items) - q.head }

func TestQueueEmpty(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			if q.Len() != 0 {
				t.Error("non-zero initial Len")
			}
			if _, ok := q.NextDue(); ok {
				t.Error("NextDue on empty")
			}
			if _, ok := q.PopDue(vclock.FromSeconds(1e6)); ok {
				t.Error("PopDue on empty")
			}
		})
	}
}

func TestQueueOrdering(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			times := []int64{50, 10, 30, 20, 40, 10, 60}
			for i, ms := range times {
				q.Push(Item{Due: vclock.FromMillis(ms), Pkt: wire.Packet{Seq: uint32(i)}})
			}
			if q.Len() != len(times) {
				t.Fatalf("Len = %d", q.Len())
			}
			if next, ok := q.NextDue(); !ok || next != vclock.FromMillis(10) {
				t.Fatalf("NextDue = %v,%v", next, ok)
			}
			var got []int64
			var seqAt10 []uint32
			for {
				it, ok := q.PopDue(vclock.FromSeconds(10))
				if !ok {
					break
				}
				got = append(got, int64(it.Due)/1e6)
				if it.Due == vclock.FromMillis(10) {
					seqAt10 = append(seqAt10, it.Pkt.Seq)
				}
			}
			want := []int64{10, 10, 20, 30, 40, 50, 60}
			if len(got) != len(want) {
				t.Fatalf("popped %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order: got %v", got)
				}
			}
			// FIFO among equal departure times.
			if len(seqAt10) != 2 || seqAt10[0] != 1 || seqAt10[1] != 5 {
				t.Errorf("equal-Due order: %v", seqAt10)
			}
		})
	}
}

func TestQueuePopDueRespectsNow(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Push(Item{Due: vclock.FromMillis(100)})
			q.Push(Item{Due: vclock.FromMillis(200)})
			if _, ok := q.PopDue(vclock.FromMillis(99)); ok {
				t.Error("popped before due")
			}
			if it, ok := q.PopDue(vclock.FromMillis(150)); !ok || it.Due != vclock.FromMillis(100) {
				t.Errorf("PopDue(150ms) = %v,%v", it.Due, ok)
			}
			if _, ok := q.PopDue(vclock.FromMillis(150)); ok {
				t.Error("popped 200ms item at 150ms")
			}
			if it, ok := q.PopDue(vclock.FromMillis(200)); !ok || it.Due != vclock.FromMillis(200) {
				t.Error("boundary pop failed")
			}
		})
	}
}

// Property: for any interleaving of pushes and due-pops the heap yields
// exactly the items, in exactly the order, the list oracle does.
func TestQueueEquivalenceRandomized(t *testing.T) {
	t.Run("list", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		q := NewList()
		ref := NewHeap()
		now := vclock.Time(0)
		for step := 0; step < 5000; step++ {
			if rng.Intn(3) > 0 { // bias toward pushes, then drain
				due := now + vclock.FromMillis(int64(rng.Intn(500)))
				it := Item{Due: due, Pkt: wire.Packet{Seq: uint32(step)}}
				q.Push(it)
				ref.Push(it)
			} else {
				now += vclock.FromMillis(int64(rng.Intn(50)))
				for {
					a, okA := q.PopDue(now)
					b, okB := ref.PopDue(now)
					if okA != okB {
						t.Fatalf("step %d: pop disagreement ok=%v/%v", step, okA, okB)
					}
					if !okA {
						break
					}
					if a.Due != b.Due || a.Pkt.Seq != b.Pkt.Seq {
						t.Fatalf("step %d: pop mismatch (%v,%d) vs (%v,%d)",
							step, a.Due, a.Pkt.Seq, b.Due, b.Pkt.Seq)
					}
				}
			}
			if q.Len() != ref.Len() {
				t.Fatalf("step %d: Len %d vs %d", step, q.Len(), ref.Len())
			}
		}
	})
}

// Property: PopDueBatch is observationally identical to repeated PopDue
// — same items, same (Due, seq) order, same residual queue — for the
// heap and its oracle, arbitrary interleavings, and arbitrary batch
// buffer sizes (including buffers smaller than the due run).
func TestPopDueBatchMatchesPopDue(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			single, batched := mk(), mk()
			now := vclock.Time(0)
			buf := make([]Item, 17)
			for step := 0; step < 5000; step++ {
				if rng.Intn(3) > 0 {
					due := now + vclock.FromMillis(int64(rng.Intn(500)))
					it := Item{Due: due, Pkt: wire.Packet{Seq: uint32(step)}}
					single.Push(it)
					batched.Push(it)
					continue
				}
				now += vclock.FromMillis(int64(rng.Intn(50)))
				var fromSingle, fromBatch []Item
				for {
					it, ok := single.PopDue(now)
					if !ok {
						break
					}
					fromSingle = append(fromSingle, it)
				}
				for {
					// Vary the batch size so runs split across calls at
					// every alignment, the way a capped scanner buffer would.
					n := batched.PopDueBatch(now, buf[:1+rng.Intn(len(buf))])
					if n == 0 {
						break
					}
					fromBatch = append(fromBatch, buf[:n]...)
				}
				if len(fromSingle) != len(fromBatch) {
					t.Fatalf("step %d: drained %d vs %d items", step, len(fromSingle), len(fromBatch))
				}
				for i := range fromSingle {
					if fromSingle[i].Due != fromBatch[i].Due || fromSingle[i].Pkt.Seq != fromBatch[i].Pkt.Seq {
						t.Fatalf("step %d item %d: (%v,%d) vs (%v,%d)", step, i,
							fromSingle[i].Due, fromSingle[i].Pkt.Seq, fromBatch[i].Due, fromBatch[i].Pkt.Seq)
					}
				}
				if single.Len() != batched.Len() {
					t.Fatalf("step %d: residual Len %d vs %d", step, single.Len(), batched.Len())
				}
			}
		})
	}
}

// A batch buffer larger than the queue must drain it fully; an empty or
// zero-length buffer must be a no-op.
func TestPopDueBatchEdgeCases(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			if n := q.PopDueBatch(vclock.FromSeconds(1), make([]Item, 4)); n != 0 {
				t.Fatalf("empty queue returned %d", n)
			}
			for i := 0; i < 5; i++ {
				q.Push(Item{Due: vclock.FromMillis(int64(i)), Pkt: wire.Packet{Seq: uint32(i)}})
			}
			if n := q.PopDueBatch(vclock.FromSeconds(1), nil); n != 0 {
				t.Fatalf("nil buffer returned %d", n)
			}
			buf := make([]Item, 32)
			n := q.PopDueBatch(vclock.FromSeconds(1), buf)
			if n != 5 || q.Len() != 0 {
				t.Fatalf("drained %d, residual %d", n, q.Len())
			}
			for i := 0; i < 5; i++ {
				if buf[i].Pkt.Seq != uint32(i) {
					t.Fatalf("order: %v", buf[:n])
				}
			}
		})
	}
}

func TestListCompaction(t *testing.T) {
	q := NewList()
	// Push and drain enough to trigger the head compaction path.
	for round := 0; round < 5; round++ {
		for i := 0; i < 300; i++ {
			q.Push(Item{Due: vclock.FromMillis(int64(i))})
		}
		for i := 0; i < 300; i++ {
			if _, ok := q.PopDue(vclock.FromSeconds(10)); !ok {
				t.Fatal("drain failed")
			}
		}
		if q.Len() != 0 {
			t.Fatalf("Len after drain = %d", q.Len())
		}
	}
}

// BenchmarkScheduleQueueImpls runs the heap and its oracle at a steady
// depth of ≈ 1 000 items in two due shapes. "random" draws every due
// uniformly from the next 100 ms; an op is one 1 ms step, popping what
// came due and pushing one item per pop. "in-order" is two constant-delay
// flows interleaved in bursts of 27, flow 1 lagging flow 0 by 20 µs (the
// shape ingest pushes); an op is one burst pushed and the due items
// popped in batches. TestAllocGateSchedule gates the heap's in-order
// leg at 0 allocs/op.
func BenchmarkScheduleQueueImpls(b *testing.B) {
	for name, mk := range queues() {
		b.Run("random/"+name, func(b *testing.B) {
			q := mk()
			rng := rand.New(rand.NewSource(1))
			now := vclock.Time(0)
			for i := 0; i < 1024; i++ {
				q.Push(Item{Due: now + vclock.FromMillis(int64(rng.Intn(100)))})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += vclock.FromMillis(1)
				for {
					if _, ok := q.PopDue(now); !ok {
						break
					}
					q.Push(Item{Due: now + vclock.FromMillis(int64(rng.Intn(100)))})
				}
			}
		})
		b.Run("in-order/"+name, func(b *testing.B) {
			q := mk()
			f := &flowDues{rng: rand.New(rand.NewSource(1)), burst: 27, delay: vclock.FromMillis(2), lag: micros(20)}
			buf := make([]Item, DefaultFireBatch)
			// Each flow's stamps advance 2 µs per push on average; popping
			// what is due 1 ms of stamps behind the slower flow keeps
			// ≈ 1 250 items in flight.
			burst := func() {
				for i := 0; i < 27; i++ {
					due, _ := f.next()
					q.Push(Item{Due: due})
				}
				now := min(f.stamp[0], f.stamp[1]) + f.delay - micros(1000)
				for q.PopDueBatch(now, buf) > 0 {
				}
			}
			for i := 0; i < 256; i++ { // reach the steady depth: the ring and heap stop growing
				burst()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				burst()
			}
		})
	}
}

// Property (testing/quick): for any op stream, every queue pops items
// in non-decreasing Due order and never releases a future item.
func TestQueueOrderingInvariantQuick(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				q := mk()
				now := vclock.Time(0)
				lastPopped := vclock.Time(-1 << 62)
				for _, op := range ops {
					if op%3 != 0 { // push biased 2:1
						q.Push(Item{Due: now + vclock.FromMillis(int64(op%512))})
						continue
					}
					now += vclock.FromMillis(int64(op % 64))
					for {
						it, ok := q.PopDue(now)
						if !ok {
							break
						}
						if it.Due > now {
							return false // future item released
						}
						if it.Due < lastPopped {
							return false // ordering violated
						}
						lastPopped = it.Due
					}
					// After a drain, nothing due remains.
					if due, ok := q.NextDue(); ok && due <= now {
						return false
					}
					lastPopped = -1 << 62 // order resets per drain window
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// fanTargets draws one PushFan's targets in one of the three due shapes
// a link model produces: every receiver at one instant (constant delay,
// a serialized channel), every receiver at its own (distance-dependent
// delay), or A B A (rate rings). Dues may lie before now, so a push can
// become the new root under a half-popped fan.
func fanTargets(rng *rand.Rand, now vclock.Time, to *uint32) []Target {
	due := func() vclock.Time { return now + vclock.FromMillis(int64(rng.Intn(60)-10)) }
	n := 1 + rng.Intn(40)
	shape := rng.Intn(3)
	a, b := due(), due()
	targets := make([]Target, n)
	for i := range targets {
		*to++
		targets[i].To = radio.NodeID(*to)
		switch shape {
		case 0:
			targets[i].Due = a
		case 1:
			targets[i].Due = a + vclock.Time(i)
		default:
			targets[i].Due = a
			if i >= n/3 && i < 2*n/3 {
				targets[i].Due = b
			}
		}
	}
	return targets
}

func sameItem(a, b Item) bool {
	return a.Due == b.Due && a.To == b.To && a.Pkt.Seq == b.Pkt.Seq
}

// Property: whatever mix of single-receiver pushes and fans fills the
// schedule and however the pops are sized, the heap yields the
// (Due, To, Pkt.Seq) sequence the oracle yields for the
// equivalent sequential pushes, and counts the same deliveries at every
// step. Pops are single calls, not drains, so pushes land between the
// two halves of a fan the buffer cut.
func TestPushFanMatchesSequentialPushes(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		rng := rand.New(rand.NewSource(seed))
		s := NewScanner(vclock.NewManual(0), func(vclock.Time, []Item) {}) // never started: s.q is ours
		ref := NewList()
		now := vclock.Time(0)
		var to uint32
		got, want := make([]Item, 256), make([]Item, 256)
		sizes := []int{1, 3, 256}
		item := func(step int) Item {
			to++
			return Item{Due: now + vclock.FromMillis(int64(rng.Intn(60)-10)), To: radio.NodeID(to),
				Pkt: wire.Packet{Seq: uint32(step)}}
		}
		for step := 1; step <= 6000; step++ {
			switch op := rng.Intn(8); {
			case op <= 1:
				it := item(step)
				push(s, it)
				ref.Push(it)
			case op <= 3:
				pkt := wire.Packet{Seq: uint32(step)}
				targets := fanTargets(rng, now, &to)
				s.PushFan(pkt, targets)
				for _, tg := range targets {
					ref.Push(Item{Due: tg.Due, To: tg.To, Pkt: pkt})
				}
			case op == 4:
				now += vclock.FromMillis(int64(rng.Intn(8)))
				a, okA := s.q.PopDue(now)
				b, okB := ref.PopDue(now)
				if okA != okB || !sameItem(a, b) {
					t.Fatalf("seed %d step %d: PopDue %+v,%v want %+v,%v", seed, step, a, okA, b, okB)
				}
			default:
				now += vclock.FromMillis(int64(rng.Intn(8)))
				size := sizes[rng.Intn(len(sizes))]
				n, m := s.q.PopDueBatch(now, got[:size]), ref.PopDueBatch(now, want[:size])
				if n != m {
					t.Fatalf("seed %d step %d: PopDueBatch(%d) wrote %d, want %d", seed, step, size, n, m)
				}
				for i := 0; i < n; i++ {
					if !sameItem(got[i], want[i]) {
						t.Fatalf("seed %d step %d item %d: %+v want %+v", seed, step, i, got[i], want[i])
					}
				}
			}
			if s.q.Len() != ref.Len() || s.Pending() != ref.Len() {
				t.Fatalf("seed %d step %d: Len %d Pending %d, oracle %d", seed, step, s.q.Len(), s.Pending(), ref.Len())
			}
			checkRunBound(t, &s.q)
			da, okA := s.q.NextDue()
			db, okB := ref.NextDue()
			if okA != okB || da != db {
				t.Fatalf("seed %d step %d: NextDue %v,%v want %v,%v", seed, step, da, okA, db, okB)
			}
		}
		left := ref.Len()
		if n := s.Drain(func(it Item) {
			if b, _ := ref.PopDue(vclock.Max); !sameItem(it, b) {
				t.Fatalf("seed %d drain: %+v want %+v", seed, it, b)
			}
		}); n != left || s.q.Len() != 0 || entries(&s.q) != 0 {
			t.Fatalf("seed %d: drained %d of %d, %d left in %d entries", seed, n, left, s.q.Len(), entries(&s.q))
		}
	}
}

// entries counts a queue's entries — transmissions, not deliveries — in
// the heap and the in-order run together.
func entries(q *HeapQueue) int { return len(q.h) + q.run.Len() }

// A fan the batch buffer cut waits at the head with its cursor advanced:
// a push due earlier overtakes the rest of it, a push due at the same
// instant queues behind it — what five sequential pushes would have
// done. The fan is cut once at the head of the in-order run (an empty
// schedule sends it there) and once at the heap's root (a later entry
// already at the run's tail sends it there).
func TestPushFanCutByBatchBoundary(t *testing.T) {
	later := vclock.FromMillis(50)
	for _, tc := range []struct {
		name      string
		first     []Item // pushed before the fan
		inRun     bool   // where the fan lands
		leftAfter int    // entries the final drain leaves
	}{
		{"run", nil, true, 0},
		{"heap", []Item{{Due: later, To: 97, Pkt: wire.Packet{Seq: 9}}}, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewHeap()
			for _, it := range tc.first {
				q.Push(it)
			}
			due := vclock.FromMillis(10)
			q.PushFan(wire.Packet{Seq: 1}, []Target{{1, due}, {2, due}, {3, due}, {4, due}, {5, due}})
			if e, inRun := q.head(); e == nil || e.due != due || inRun != tc.inRun {
				t.Fatalf("fan at the head: in the run %v, want %v", inRun, tc.inRun)
			}
			if want := len(tc.first) + 5; q.Len() != want || entries(q) != len(tc.first)+1 {
				t.Fatalf("Len %d in %d entries, want %d in %d", q.Len(), entries(q), want, len(tc.first)+1)
			}
			buf := make([]Item, 3)
			now := vclock.FromMillis(20)
			if n := q.PopDueBatch(now, buf); n != 3 || q.Len() != len(tc.first)+2 {
				t.Fatalf("first pop wrote %d, left %d", n, q.Len())
			}
			for i, it := range buf {
				if it.To != radio.NodeID(i+1) || it.Due != due || it.Pkt.Seq != 1 {
					t.Fatalf("first pop item %d: %+v", i, it)
				}
			}
			q.Push(Item{Due: due, To: 98, Pkt: wire.Packet{Seq: 2}})
			q.Push(Item{Due: vclock.FromMillis(5), To: 99, Pkt: wire.Packet{Seq: 3}})
			if next, _ := q.NextDue(); next != vclock.FromMillis(5) {
				t.Fatalf("NextDue %v: the earlier push did not become the head", next)
			}
			var order []radio.NodeID
			for {
				n := q.PopDueBatch(now, buf)
				if n == 0 {
					break
				}
				for _, it := range buf[:n] {
					order = append(order, it.To)
				}
			}
			if want := []radio.NodeID{99, 4, 5, 98}; len(order) != len(want) ||
				order[0] != want[0] || order[1] != want[1] || order[2] != want[2] || order[3] != want[3] {
				t.Fatalf("fire order %v, want %v", order, want)
			}
			if q.Len() != len(tc.first) || entries(q) != tc.leftAfter {
				t.Fatalf("Len %d in %d entries after the drain", q.Len(), entries(q))
			}
		})
	}
}

// Equal dues split across the two structures fire in push order: a push
// at the run's tail instant joins the run, an earlier one goes to the
// heap, and when the heap's root and the run's head are due together
// the run's head, the earlier push, fires first.
func TestInOrderRunEqualDuesFireInPushOrder(t *testing.T) {
	q := NewHeap()
	ms := vclock.FromMillis
	for i, due := range []vclock.Time{ms(10), ms(20), ms(20), ms(10), ms(20), ms(15), ms(10)} {
		q.Push(Item{Due: due, To: radio.NodeID(i)})
	}
	// Run: 10/0, 20/1, 20/2, 20/4. Heap: 10/3, 15/5, 10/6.
	if q.run.Len() != 4 || len(q.h) != 3 {
		t.Fatalf("%d entries in the run, %d in the heap; want 4 and 3", q.run.Len(), len(q.h))
	}
	var got []radio.NodeID
	buf := make([]Item, 2)
	for {
		n := q.PopDueBatch(vclock.Max, buf)
		if n == 0 {
			break
		}
		for _, it := range buf[:n] {
			got = append(got, it.To)
		}
	}
	want := []radio.NodeID{0, 3, 6, 5, 1, 2, 4}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if entries(q) != 0 {
		t.Fatalf("%d entries after the drain", entries(q))
	}
}

// A far-future entry at the run's tail sends every later, earlier-due
// push to the heap until it fires; order is still the oracle's, and the
// run takes pushes again once the tail has gone.
func TestInOrderRunFarFutureTail(t *testing.T) {
	q, ref := NewHeap(), NewList()
	pushBoth := func(it Item) { q.Push(it); ref.Push(it) }
	far := vclock.FromSeconds(3600)
	pushBoth(Item{Due: far, To: 1})
	for i := 0; i < 300; i++ {
		pushBoth(Item{Due: vclock.FromMillis(int64(i)), To: radio.NodeID(i + 2)})
	}
	if q.run.Len() != 1 || len(q.h) != 300 {
		t.Fatalf("%d entries in the run, %d in the heap; want 1 and 300", q.run.Len(), len(q.h))
	}
	buf := make([]Item, 64)
	drain := func(now vclock.Time) {
		for {
			n, m := q.PopDueBatch(now, buf), ref.PopDueBatch(now, make([]Item, len(buf)))
			if n != m {
				t.Fatalf("PopDueBatch wrote %d, oracle %d", n, m)
			}
			if n == 0 {
				return
			}
		}
	}
	drain(vclock.FromMillis(299))
	if q.run.Len() != 1 || len(q.h) != 0 || q.Len() != ref.Len() {
		t.Fatalf("run %d, heap %d, Len %d (oracle %d) with only the tail left", q.run.Len(), len(q.h), q.Len(), ref.Len())
	}
	drain(far)
	for i := 0; i < 10; i++ {
		pushBoth(Item{Due: far + vclock.Time(i), To: radio.NodeID(i)})
	}
	if q.run.Len() != 10 || len(q.h) != 0 {
		t.Fatalf("%d entries in the run, %d in the heap after the tail fired; want 10 and 0", q.run.Len(), len(q.h))
	}
}

// checkRunBound checks the invariant head's tie rule rests on: every
// heap entry is due strictly before the run's tail, so the heap is
// empty whenever the run is.
func checkRunBound(t *testing.T, q *HeapQueue) {
	t.Helper()
	if len(q.h) == 0 {
		return
	}
	if q.run.Len() == 0 {
		t.Fatalf("%d heap entries beside an empty run", len(q.h))
	}
	tail := q.run.At(q.run.Len() - 1).due
	for _, e := range q.h {
		if e.due >= tail {
			t.Fatalf("heap entry due %v, not before the run's tail %v", e.due, tail)
		}
	}
}

// flowDues yields the dues of two flows interleaved in bursts, the
// shape ingest pushes: each flow's stamps advance monotonically, its
// dues are stamp + delay (+ jitter), and flow 1 runs lag µs behind
// flow 0, so its bursts start before flow 0's tail.
type flowDues struct {
	rng         *rand.Rand
	burst       int
	delay, lag  vclock.Time
	jitter      int64 // µs; 0 for a constant-delay link
	stamp       [2]vclock.Time
	flow, inRun int
}

func micros(n int64) vclock.Time { return vclock.Time(n * 1000) }

func (f *flowDues) next() (due vclock.Time, flow int) {
	if f.inRun == f.burst {
		f.flow, f.inRun = 1-f.flow, 0
	}
	f.inRun++
	f.stamp[f.flow] += micros(int64(1 + f.rng.Intn(3)))
	due = f.stamp[f.flow] + f.delay
	if f.flow == 1 {
		due -= f.lag
	}
	if f.jitter > 0 {
		due += micros(f.rng.Int63n(f.jitter))
	}
	return due, f.flow
}

// Property: for the traffic shapes the run exists for — two interleaved
// monotone flows, with and without jitter, single pushes and fans — the
// queue pops exactly the oracle's sequence at every batch size, keeps
// the oracle's Len and NextDue, and drains across both structures in
// the oracle's order. Every shape puts entries in both structures.
func TestInOrderRunMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		jitter int64
		fan    int
	}{
		{"monotone", 0, 1},
		{"jitter", 40, 1},
		{"monotone-fans", 0, 4},
		{"jitter-fans", 40, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			s := NewScanner(vclock.NewManual(0), func(vclock.Time, []Item) {}) // never started: s.q is ours
			ref := NewList()
			f := &flowDues{rng: rng, burst: 27, delay: vclock.FromMillis(2), lag: micros(20), jitter: tc.jitter}
			got, want := make([]Item, 256), make([]Item, 256)
			sizes := []int{1, 3, 27, 256}
			var now vclock.Time
			var to uint32
			maxRun, maxHeap := 0, 0
			pushNext := func(step int) {
				due, flow := f.next()
				pkt := wire.Packet{Seq: uint32(step), Src: radio.NodeID(flow)}
				targets := make([]Target, tc.fan)
				for i := range targets {
					to++
					targets[i] = Target{To: radio.NodeID(to), Due: due}
				}
				s.PushFan(pkt, targets)
				for _, tg := range targets {
					ref.Push(Item{Due: tg.Due, To: tg.To, Pkt: pkt})
				}
			}
			step := 1
			for ; step <= 20000; step++ {
				if rng.Intn(4) > 0 {
					pushNext(step)
				} else {
					now = f.stamp[rng.Intn(2)] + micros(int64(rng.Intn(2500)))
					size := sizes[rng.Intn(len(sizes))]
					n, m := s.q.PopDueBatch(now, got[:size]), ref.PopDueBatch(now, want[:size])
					if n != m {
						t.Fatalf("step %d: PopDueBatch(%d) wrote %d, want %d", step, size, n, m)
					}
					for i := 0; i < n; i++ {
						if !sameItem(got[i], want[i]) {
							t.Fatalf("step %d item %d: %+v want %+v", step, i, got[i], want[i])
						}
					}
				}
				maxRun, maxHeap = max(maxRun, s.q.run.Len()), max(maxHeap, len(s.q.h))
				checkRunBound(t, &s.q)
				if s.q.Len() != ref.Len() {
					t.Fatalf("step %d: Len %d, oracle %d", step, s.q.Len(), ref.Len())
				}
				da, okA := s.q.NextDue()
				db, okB := ref.NextDue()
				if okA != okB || da != db {
					t.Fatalf("step %d: NextDue %v,%v want %v,%v", step, da, okA, db, okB)
				}
			}
			if maxRun < 2 || maxHeap < 2 {
				t.Fatalf("the shape reached %d entries in the run and %d in the heap; it must use both", maxRun, maxHeap)
			}
			// Push on until the drain has entries in both structures: flow
			// 1's next burst starts before flow 0's tail.
			for ; len(s.q.h) == 0 && step <= 21000; step++ {
				pushNext(step)
			}
			if s.q.run.Len() == 0 || len(s.q.h) == 0 {
				t.Fatalf("drain starts with %d entries in the run and %d in the heap; want both", s.q.run.Len(), len(s.q.h))
			}
			left := ref.Len()
			if n := s.Drain(func(it Item) {
				if b, _ := ref.PopDue(vclock.Max); !sameItem(it, b) {
					t.Fatalf("drain: %+v want %+v", it, b)
				}
			}); n != left || s.q.Len() != 0 || entries(&s.q) != 0 {
				t.Fatalf("drained %d of %d, %d left in %d entries", n, left, s.q.Len(), entries(&s.q))
			}
		})
	}
}

// Drain walks a half-fired fan's cursor: every receiver that did not
// fire is visited once, none of those that did.
func TestDrainVisitsUnfiredReceiversOfAFan(t *testing.T) {
	clk := vclock.NewManual(0)
	col := newCollect(clk)
	s := NewScanner(clk, col.fire)
	s.Start()
	fan := func(first, n int, due vclock.Time) []Target {
		ts := make([]Target, n)
		for i := range ts {
			ts[i] = Target{To: radio.NodeID(first + i), Due: due}
		}
		return ts
	}
	s.PushFan(wire.Packet{Seq: 1}, fan(1, 10, vclock.FromSeconds(1)))
	s.PushFan(wire.Packet{Seq: 2}, fan(101, 300, vclock.FromSeconds(2)))
	clk.Set(vclock.FromSeconds(1))
	col.waitN(t, 10)
	waitPending(t, s, 300) // the fired batch leaves Pending when its fire call returns
	s.Stop()
	// The scanner is gone; cut the second fan the way a full batch buffer
	// would have.
	buf := make([]Item, 100)
	if n := s.q.PopDueBatch(vclock.FromSeconds(2), buf); n != 100 || buf[0].To != 101 || buf[99].To != 200 {
		t.Fatalf("cut: wrote %d, receivers %d to %d", n, buf[0].To, buf[99].To)
	}
	next := radio.NodeID(201)
	n := s.Drain(func(it Item) {
		if it.To != next || it.Pkt.Seq != 2 {
			t.Errorf("drained %+v, want receiver %d", it, next)
		}
		next++
	})
	if n != 200 || s.Pending() != 0 {
		t.Fatalf("drained %d, %d still pending", n, s.Pending())
	}
}

// Once the heap, the run's ring and the spare list have grown, a
// broadcast allocates nothing: an exhausted entry's receiver slice is the
// next fan's. The benchmark gate (TestAllocGateSchedule) counts
// allocations per fired item and cannot see one per 36; this counts per
// fan. "mixed" repeats eight dues, so fans land in both structures;
// "in-order" pushes non-decreasing dues, so every fan joins the run.
func TestPushFanSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		due  func(f int) vclock.Time
	}{
		{"mixed", func(f int) vclock.Time { return vclock.Time(f % 8) }},
		{"in-order", func(f int) vclock.Time { return vclock.Time(f / 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewHeap()
			targets := make([]Target, 36)
			buf := make([]Item, DefaultFireBatch)
			round := func() {
				for f := 0; f < 64; f++ {
					for i := range targets {
						targets[i] = Target{To: radio.NodeID(i + 1), Due: tc.due(f)}
					}
					q.PushFan(wire.Packet{}, targets)
				}
				for q.PopDueBatch(vclock.Max, buf) > 0 {
				}
			}
			round() // grow the heap, the ring and the spare list
			if tc.name == "in-order" && len(q.h) != 0 {
				t.Fatalf("%d in-order fans went to the heap", len(q.h))
			}
			if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
				t.Fatalf("%.1f allocations per 64 fans in steady state, want 0", allocs)
			}
		})
	}
}
