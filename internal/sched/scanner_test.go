package sched

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/radio"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// push lists one item through the scanner's one push, as a fan of one.
func push(s *Scanner, it Item) {
	s.PushFan(it.Pkt, []Target{{To: it.To, Due: it.Due}})
}

// collect gathers fired items with their fire times.
type collect struct {
	mu    sync.Mutex
	clk   vclock.Clock
	items []Item
	times []vclock.Time
	ch    chan struct{}
}

func newCollect(clk vclock.Clock) *collect {
	return &collect{clk: clk, ch: make(chan struct{}, 1024)}
}

func (c *collect) fire(_ vclock.Time, batch []Item) {
	for _, it := range batch {
		c.mu.Lock()
		c.items = append(c.items, it)
		c.times = append(c.times, c.clk.Now())
		c.mu.Unlock()
		c.ch <- struct{}{}
	}
}

func (c *collect) waitN(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for dispatch %d/%d", i+1, n)
		}
	}
}

// waitPending polls until the scanner's Pending reads want.
func waitPending(t *testing.T, s *Scanner, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Pending() != want {
		if time.Now().After(deadline) {
			t.Fatalf("Pending %d, want %d", s.Pending(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestScannerFiresInOrder(t *testing.T) {
	clk := vclock.NewSystem(1000) // 1 ms wall = 1 s emulated
	col := newCollect(clk)
	s := NewScanner(clk, col.fire)
	s.Start()
	defer s.Stop()
	base := clk.Now()
	// Push out of order.
	for _, d := range []time.Duration{300, 100, 200} {
		push(s, Item{Due: base.Add(d * time.Millisecond * 1000), Pkt: wire.Packet{Seq: uint32(d)}})
	}
	col.waitN(t, 3)
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.items[0].Pkt.Seq != 100 || col.items[1].Pkt.Seq != 200 || col.items[2].Pkt.Seq != 300 {
		t.Errorf("dispatch order: %d %d %d", col.items[0].Pkt.Seq, col.items[1].Pkt.Seq, col.items[2].Pkt.Seq)
	}
	// Nothing fired before its due time.
	for i, at := range col.times {
		if at < col.items[i].Due {
			t.Errorf("item %d fired at %v before due %v", i, at, col.items[i].Due)
		}
	}
	if s.Stats().Dispatched != 3 {
		t.Errorf("Dispatched = %d", s.Stats().Dispatched)
	}
}

func TestScannerEarlyPushOvertakes(t *testing.T) {
	clk := vclock.NewSystem(100)
	col := newCollect(clk)
	s := NewScanner(clk, col.fire)
	s.Start()
	defer s.Stop()
	base := clk.Now()
	// A far-future item first; the scanner goes to sleep on it.
	push(s, Item{Due: base.Add(5 * time.Second), Pkt: wire.Packet{Seq: 2}})
	time.Sleep(2 * time.Millisecond)
	// Then a near item: it must fire first, well before 5s emulated.
	push(s, Item{Due: base.Add(50 * time.Millisecond), Pkt: wire.Packet{Seq: 1}})
	col.waitN(t, 1)
	col.mu.Lock()
	first := col.items[0].Pkt.Seq
	col.mu.Unlock()
	if first != 1 {
		t.Errorf("first dispatched = %d, want the early pushed item", first)
	}
}

func TestScannerManualClock(t *testing.T) {
	clk := vclock.NewManual(0)
	col := newCollect(clk)
	s := NewScanner(clk, col.fire)
	s.Start()
	defer s.Stop()
	push(s, Item{Due: vclock.FromSeconds(1), Pkt: wire.Packet{Seq: 1}})
	push(s, Item{Due: vclock.FromSeconds(2), Pkt: wire.Packet{Seq: 2}})
	time.Sleep(2 * time.Millisecond)
	col.mu.Lock()
	n := len(col.items)
	col.mu.Unlock()
	if n != 0 {
		t.Fatalf("fired %d items with frozen clock", n)
	}
	clk.Set(vclock.FromSeconds(1))
	col.waitN(t, 1)
	clk.Set(vclock.FromSeconds(5))
	col.waitN(t, 1)
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.items[0].Pkt.Seq != 1 || col.items[1].Pkt.Seq != 2 {
		t.Errorf("manual dispatch order: %+v", col.items)
	}
}

func TestScannerStopIdempotent(t *testing.T) {
	clk := vclock.NewManual(0)
	s := NewScanner(clk, func(vclock.Time, []Item) {})
	s.Start()
	s.Stop()
	s.Stop() // second stop must not panic or hang
}

func TestScannerStopWithPending(t *testing.T) {
	clk := vclock.NewManual(0)
	s := NewScanner(clk, func(vclock.Time, []Item) {})
	s.Start()
	for i := 0; i < 10; i++ {
		push(s, Item{Due: vclock.FromSeconds(float64(i + 100))})
	}
	if s.Pending() != 10 {
		t.Errorf("Pending = %d", s.Pending())
	}
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung with pending items")
	}
}

// Kick elision: pushes that cannot beat the deadline the scanner is
// already sleeping toward must not wake it, while an earlier-due push
// must still deliver its kick and overtake.
func TestScannerKickElision(t *testing.T) {
	clk := vclock.NewManual(0)
	col := newCollect(clk)
	s := NewScanner(clk, col.fire)
	s.Start()
	defer s.Stop()

	// Anchor: the scanner ends up sleeping toward 1s.
	push(s, Item{Due: vclock.FromSeconds(1), Pkt: wire.Packet{Seq: 100}})

	// Probe with later-due pushes until one observes the parked scanner
	// and elides. Early probes may race the scanner still settling in
	// (sleepDue reads "awake" and the kick is conservatively delivered) —
	// that is by design, so poll rather than assert the first probe.
	deadline := time.Now().Add(5 * time.Second)
	probes := uint32(0)
	for s.Stats().KicksElided == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no kick elided after %d later-due probes: %+v", probes, s.Stats())
		}
		probes++
		push(s, Item{Due: vclock.FromSeconds(2), Pkt: wire.Packet{Seq: 200 + probes}})
		time.Sleep(100 * time.Microsecond)
	}

	// An earlier-due push must NOT elide: its kick re-arms the sleep so
	// the 0.5s item can fire before the slept-on 1s deadline.
	before := s.Stats().KicksDelivered
	push(s, Item{Due: vclock.FromSeconds(0.5), Pkt: wire.Packet{Seq: 1}})
	if got := s.Stats().KicksDelivered; got != before+1 {
		t.Fatalf("earlier-due push delivered %d kicks, want 1", got-before)
	}
	clk.Set(vclock.FromSeconds(0.5))
	col.waitN(t, 1)
	col.mu.Lock()
	first := col.items[0].Pkt.Seq
	col.mu.Unlock()
	if first != 1 {
		t.Fatalf("first dispatched seq = %d, want the earlier-due overtaker", first)
	}
}

// A sleeping scanner must cost exactly one goroutine — its own. The old
// implementation spawned a helper goroutine per sleep; the reusable
// waiter must not.
func TestScannerSleepNoGoroutines(t *testing.T) {
	clk := vclock.NewSystem(1)
	base := runtime.NumGoroutine()
	s := NewScanner(clk, func(vclock.Time, []Item) {})
	s.Start()
	defer s.Stop()
	// Park the scanner on a far-future deadline, then let cycles of
	// kicked re-sleeps churn; the goroutine count must stay at base+1.
	push(s, Item{Due: clk.Now().Add(time.Hour)})
	for i := 0; i < 50; i++ {
		push(s, Item{Due: clk.Now().Add(time.Hour + time.Duration(i))})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		extra := runtime.NumGoroutine() - base
		if extra <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sleeping scanner holds %d extra goroutines, want 1", extra)
		}
		time.Sleep(time.Millisecond)
	}
}

// A full push→sleep→wake→fire cycle on the steady state allocates
// nothing: the schedule buffer is warm, the waiter reuses its timer, and
// the batch buffer was allocated at Start.
func TestScannerSleepFireAllocFree(t *testing.T) {
	clk := vclock.NewSystem(10000) // 0.1 ms wall = 1 s emulated
	fired := make(chan struct{}, 64)
	s := NewScanner(clk, func(vclock.Time, []Item) { fired <- struct{}{} })
	s.Start()
	defer s.Stop()
	// The bare receive is deliberate: a time.After guard here would be
	// charged to the measurement (it allocates a timer per call). A hung
	// scanner fails via the package test timeout instead.
	cycle := func() {
		push(s, Item{Due: clk.Now().Add(50 * time.Millisecond)})
		<-fired
	}
	cycle() // warm the heap's backing array
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("scanner sleep/fire cycle allocates %v per item, want 0", allocs)
	}
}

// With many items due at once, the scanner must drain them in batches
// of DefaultFireBatch (one lock cycle each), handing each whole batch to
// one fire call in push order with the clock reading that popped it.
// Pending counts a fired batch until that call returns.
func TestScannerBatchObserver(t *testing.T) {
	clk := vclock.NewManual(0)
	col := newCollect(clk)
	type fire struct {
		now     vclock.Time
		size    int
		pending int
	}
	var mu sync.Mutex
	var fires []fire
	var s *Scanner
	s = NewScanner(clk, func(now vclock.Time, batch []Item) {
		mu.Lock()
		fires = append(fires, fire{now: now, size: len(batch), pending: s.Pending()})
		mu.Unlock()
		col.fire(now, batch)
	})
	s.Start()
	defer s.Stop()
	const n = DefaultFireBatch + 10
	for i := 0; i < n; i++ {
		push(s, Item{Due: vclock.FromSeconds(1), Pkt: wire.Packet{Seq: uint32(i)}})
	}
	clk.Set(vclock.FromSeconds(1))
	col.waitN(t, n)
	waitPending(t, s, 0)
	mu.Lock()
	defer mu.Unlock()
	if len(fires) != 2 || fires[0].size != DefaultFireBatch || fires[1].size != 10 {
		t.Fatalf("due run split into batches %+v, want sizes [%d 10]", fires, DefaultFireBatch)
	}
	for i, f := range fires {
		if f.now != vclock.FromSeconds(1) {
			t.Errorf("batch %d fired with now %v, want the popping read 1s", i, f.now)
		}
	}
	// The first call still has the second batch queued behind it.
	if fires[0].pending != n || fires[1].pending != 10 {
		t.Errorf("Pending inside the fire calls read %d and %d, want %d and 10",
			fires[0].pending, fires[1].pending, n)
	}
	if st := s.Stats(); st.Batches != 2 || st.Dispatched != n {
		t.Errorf("stats %+v disagree with the fire calls %+v", st, fires)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	for i, it := range col.items {
		if it.Pkt.Seq != uint32(i) {
			t.Fatalf("item %d fired with seq %d: the batch boundary broke push order", i, it.Pkt.Seq)
		}
	}
}

// PushFan preserves (Due, push-order) FIFO exactly as sequential
// single-receiver pushes would, with one lock cycle and at most one kick
// for the whole fan; an empty fan takes neither.
func TestScannerPushFanFIFO(t *testing.T) {
	clk := vclock.NewManual(0)
	col := newCollect(clk)
	s := NewScanner(clk, col.fire)
	s.Start()
	defer s.Stop()
	s.PushFan(wire.Packet{Seq: 1}, []Target{
		{To: 30, Due: vclock.FromSeconds(3)},
		{To: 10, Due: vclock.FromSeconds(1)},
		{To: 20, Due: vclock.FromSeconds(2)},
		{To: 11, Due: vclock.FromSeconds(1)},
	})
	if st := s.Stats(); st.PushLocks != 1 {
		t.Errorf("PushFan took %d lock cycles, want 1", st.PushLocks)
	}
	clk.Set(vclock.FromSeconds(5))
	col.waitN(t, 4)
	col.mu.Lock()
	defer col.mu.Unlock()
	want := []radio.NodeID{10, 11, 20, 30}
	for i, w := range want {
		if col.items[i].To != w {
			t.Fatalf("dispatch order %+v, want receivers %v", col.items, want)
		}
	}
	kicks := s.Stats().KicksDelivered + s.Stats().KicksElided
	s.PushFan(wire.Packet{}, nil) // no-op, must not kick or lock
	if st := s.Stats(); st.PushLocks != 1 || st.KicksDelivered+st.KicksElided != kicks {
		t.Errorf("empty PushFan took a lock cycle or a kick: %+v", st)
	}
}

func TestScannerHighThroughput(t *testing.T) {
	clk := vclock.NewSystem(10000)
	var count int64
	var mu sync.Mutex
	s := NewScanner(clk, func(_ vclock.Time, batch []Item) {
		mu.Lock()
		count += int64(len(batch))
		mu.Unlock()
	})
	s.Start()
	defer s.Stop()
	const n = 5000
	base := clk.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				push(s, Item{Due: base.Add(time.Duration(i%100) * time.Millisecond)})
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d dispatched", c, n)
		}
		time.Sleep(time.Millisecond)
	}
}
