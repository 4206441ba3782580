package ring

import (
	"math/rand"
	"testing"

	"repro/internal/mbuf"
)

// TestRingMatchesSliceOracle drives a ring and a plain slice with the
// same random Push/Drop sequence, biased to fill, drain and refill, so
// the ring wraps at every size it grows through, and compares every
// entry after each step.
func TestRingMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int]
	var oracle []int
	next, grown := 0, 0
	for step := 0; step < 40000; step++ {
		// Each 1 000-step phase leans toward pushing or toward dropping.
		pushBias := 3
		if step/1000%2 == 1 {
			pushBias = 1
		}
		if rng.Intn(4) < pushBias || len(oracle) == 0 {
			before := len(r.buf)
			*r.Push() = next
			oracle = append(oracle, next)
			next++
			if len(r.buf) != before {
				grown++
				if len(r.buf) != max(2*before, 1) {
					t.Fatalf("step %d: grew from %d to %d slots, want doubling", step, before, len(r.buf))
				}
			}
		} else {
			r.Drop()
			oracle = oracle[1:]
		}
		if r.Len() != len(oracle) {
			t.Fatalf("step %d: Len %d, oracle %d", step, r.Len(), len(oracle))
		}
		for i, want := range oracle {
			if got := *r.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, oracle %d", step, i, got, want)
			}
		}
	}
	if grown < 8 {
		t.Fatalf("only %d growth steps: the walk never got deep", grown)
	}
}

// TestRingAtPanicsOutOfRange checks that a stale or negative index
// fails loudly instead of reading a zeroed or wrapped slot.
func TestRingAtPanicsOutOfRange(t *testing.T) {
	var r Ring[int]
	*r.Push() = 1
	*r.Push() = 2
	r.Drop()
	for _, i := range []int{-1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a one-entry ring did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
	r.Drop()
	defer func() {
		if recover() == nil {
			t.Error("Drop on an empty ring did not panic")
		}
	}()
	r.Drop()
}

// TestRingDropZeroesSlot checks that a dropped entry leaves nothing
// behind in the buffer: a ring of queue entries must not keep a pooled
// mbuf.Buf reachable once its owner has released it, and a Push must
// hand out a zeroed slot even where an entry lived before.
func TestRingDropZeroesSlot(t *testing.T) {
	type entry struct {
		buf *mbuf.Buf
		tag int
	}
	pool := mbuf.NewPool()
	var r Ring[entry]
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ { // through growth to 8 slots, then wrapping
			p := r.Push()
			if *p != (entry{}) {
				t.Fatalf("round %d: Push returned a used slot %+v", round, *p)
			}
			*p = entry{buf: pool.Alloc(8), tag: i + 1}
		}
		for r.Len() > 0 {
			r.At(0).buf.Free()
			r.Drop()
		}
		for i, e := range r.buf {
			if e != (entry{}) {
				t.Fatalf("round %d: slot %d still holds %+v after every Drop", round, i, e)
			}
		}
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("pool live %d", live)
	}
}

// TestRingSteadyStateAllocFree checks that a ring at a steady depth
// allocates nothing per Push and Drop once it has grown to that depth.
func TestRingSteadyStateAllocFree(t *testing.T) {
	var r Ring[[4]uint64]
	for i := 0; i < 5; i++ {
		r.Push()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push()[0] = 1
		r.Drop()
	})
	if allocs != 0 {
		t.Fatalf("Push+Drop at depth 5 allocated %.1f times per run", allocs)
	}
}
