package mbuf

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 10, 4}, {(1 << 10) + 1, 5}, {64 << 10, 10}, {(64 << 10) + 29, 11},
		{1 << 20, numClasses - 1}, {(1 << 20) + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAllocRecycles(t *testing.T) {
	p := NewPool()
	a := p.Alloc(100)
	if len(a.Bytes()) != 100 || a.Cap() != 128 {
		t.Fatalf("Alloc(100): len=%d cap=%d, want 100/128", len(a.Bytes()), a.Cap())
	}
	a.Free()
	b := p.Alloc(90)
	if b != a {
		t.Fatalf("freed buffer was not recycled for a same-class alloc")
	}
	if len(b.Bytes()) != 90 {
		t.Fatalf("recycled buffer len = %d, want 90", len(b.Bytes()))
	}
	b.Free()
	st := p.Stats()
	if st.Live != 0 || st.Allocs != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want live 0, allocs 2, hits 1", st)
	}
}

func TestOversizeAlloc(t *testing.T) {
	p := NewPool()
	b := p.Alloc((1 << 20) + 1)
	if len(b.Bytes()) != (1<<20)+1 {
		t.Fatalf("oversize len = %d", len(b.Bytes()))
	}
	if p.Live() != 1 {
		t.Fatalf("live = %d, want 1", p.Live())
	}
	b.Free()
	if p.Live() != 0 {
		t.Fatalf("live = %d after free, want 0", p.Live())
	}
}

func TestRetainDelaysFree(t *testing.T) {
	p := NewPool()
	b := p.Alloc(32)
	b.Retain(2) // three owners total
	b.Free()
	b.Free()
	if p.Live() != 1 {
		t.Fatalf("live = %d with one reference left, want 1", p.Live())
	}
	b.Free()
	if p.Live() != 0 {
		t.Fatalf("live = %d after final free, want 0", p.Live())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool()
	b := p.Alloc(32)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatalf("double free did not panic")
		}
	}()
	b.Free()
}

// Drop gives back references that are not the last in one step; the
// last stays Free's, so a Drop that would reach zero panics.
func TestDropGivesBackAllButTheLast(t *testing.T) {
	p := NewPool()
	b := p.Alloc(32)
	b.Retain(4) // five owners, as a five-receiver fan
	b.Drop(4)
	if p.Live() != 1 {
		t.Fatalf("live = %d after dropping four of five references, want 1", p.Live())
	}
	b.Free()
	if p.Live() != 0 {
		t.Fatalf("live = %d after final free, want 0", p.Live())
	}
	c := p.Alloc(32)
	c.Retain(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("Drop of every reference did not panic")
		}
	}()
	c.Drop(2)
}

func TestNilBufIsNoOp(t *testing.T) {
	var b *Buf
	b.Retain(3)
	b.Drop(2)
	b.Free() // must not panic
}

func TestLeakCheckPoisonsFreed(t *testing.T) {
	p := NewPool()
	p.SetLeakCheck(true)
	b := p.Alloc(16)
	data := b.Bytes()
	copy(data, "sixteen bytes!!!")
	b.Free()
	for i, c := range data {
		if c != 0xDB {
			t.Fatalf("freed buffer byte %d = %#x, want poison 0xDB", i, c)
		}
	}
}

func TestLocalCacheAndSpill(t *testing.T) {
	p := NewPool()
	// Seed the global free list so the local refill has something to grab.
	seed := make([]*Buf, 0, localRefill)
	for i := 0; i < localRefill; i++ {
		seed = append(seed, p.Alloc(64))
	}
	for _, b := range seed {
		b.Free()
	}
	l := p.NewLocal()
	a := l.Alloc(64)
	if got := p.Stats().Hits; got == 0 {
		t.Fatalf("local alloc after refill should be a hit, stats %+v", p.Stats())
	}
	a.Free()
	// The refill moved buffers into the local cache; Close must return
	// them so they are not lost.
	l.Close()
	if p.Live() != 0 {
		t.Fatalf("live = %d after spill, want 0", p.Live())
	}
	b := p.Alloc(64)
	if b != a && !contains(seed, b) {
		t.Fatalf("spilled buffer was not recycled")
	}
	b.Free()
}

func contains(s []*Buf, b *Buf) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

func TestConcurrentAllocFree(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.Alloc(1 + (g*37+i)%5000)
				b.Retain(1)
				b.Free()
				b.Free()
			}
		}(g)
	}
	wg.Wait()
	if p.Live() != 0 {
		t.Fatalf("live = %d after concurrent churn, want 0", p.Live())
	}
}

func TestAllocStaysAllocationFree(t *testing.T) {
	p := NewPool()
	// Warm one buffer per class we will hit.
	w := p.Alloc(256)
	w.Free()
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Alloc(200)
		b.Free()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Alloc/Free costs %.1f allocs/op, want 0", allocs)
	}
}

// A loopback flow keeps about two thousand small buffers in flight; a
// free list shorter than that working set sends part of every cycle to
// the heap. Once one cycle has populated the lists, cycling the same
// working set through a Local must be served from them entirely.
func TestWorkingSetServedFromFreeList(t *testing.T) {
	const working = 1000
	p := NewPool()
	l := p.NewLocal()
	bufs := make([]*Buf, working)
	cycle := func() {
		for i := range bufs {
			bufs[i] = l.Alloc(100)
		}
		for _, b := range bufs {
			b.Free()
		}
	}
	cycle()
	before := p.Stats()
	for c := 0; c < 3; c++ {
		cycle()
	}
	st := p.Stats()
	if allocs, hits := st.Allocs-before.Allocs, st.Hits-before.Hits; hits != allocs {
		t.Fatalf("%d of %d allocs after the first cycle missed the free list", allocs-hits, allocs)
	}
	l.Close()
	if p.Live() != 0 {
		t.Fatalf("live = %d, want 0", p.Live())
	}
}

// The free lists are bounded in bytes: the largest class keeps a single
// buffer however large the burst that freed it, and every class keeps
// at least one.
func TestFreeListByteBudget(t *testing.T) {
	for cls, n := range classCaps {
		if n < 1 || (n > 1 && n*classSizes[cls] > classBudget) {
			t.Errorf("class %d (%d B) caches %d buffers, budget %d B", cls, classSizes[cls], n, classBudget)
		}
	}
	p := NewPool()
	burst := make([]*Buf, 3)
	for i := range burst {
		burst[i] = p.Alloc(1 << 20)
	}
	for _, b := range burst {
		b.Free()
	}
	cl := &p.classes[numClasses-1]
	if got := len(cl.free); got != 1 {
		t.Fatalf("a 3 MiB burst left %d buffers of the 1 MiB class cached, want 1", got)
	}
}
