package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestScannerFireObserver pins the fire contract the fidelity monitor
// and the server's delivery build on: one call per non-empty batch with
// the clock reading the batch was popped against, the batch sorted by
// due time ascending (so batch[0].Due is the earliest deadline), and
// every fired item in exactly one call — summed batch sizes equal
// Dispatched.
func TestScannerFireObserver(t *testing.T) {
	clk := vclock.NewManual(0)
	col := newCollect(clk)

	type fire struct {
		now   vclock.Time
		dues  []vclock.Time
		count int
	}
	var mu sync.Mutex
	var fires []fire
	s := NewScanner(clk, func(now vclock.Time, batch []Item) {
		f := fire{now: now, count: len(batch)}
		for _, it := range batch {
			f.dues = append(f.dues, it.Due)
		}
		mu.Lock()
		fires = append(fires, f)
		mu.Unlock()
		col.fire(now, batch)
	})
	s.Start()
	defer s.Stop()

	for _, sec := range []float64{3, 1, 2} {
		push(s, Item{Due: vclock.FromSeconds(sec), Pkt: wire.Packet{Seq: uint32(sec)}})
	}
	time.Sleep(2 * time.Millisecond)
	mu.Lock()
	if len(fires) != 0 {
		t.Fatalf("fire called %d times with a frozen clock", len(fires))
	}
	mu.Unlock()

	// Advance past every due time: the whole backlog fires as one batch
	// (late by 7s against the 1s deadline — the lag the call's now and
	// batch[0].Due expose).
	clk.Set(vclock.FromSeconds(8))
	col.waitN(t, 3)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, f := range fires {
		total += f.count
		if f.count == 0 {
			t.Fatal("fire called with an empty batch")
		}
		if f.now < f.dues[0] {
			t.Errorf("fire now %v before batch[0].Due %v", f.now, f.dues[0])
		}
		for i := 1; i < len(f.dues); i++ {
			if f.dues[i] < f.dues[i-1] {
				t.Errorf("batch not sorted by due: %v", f.dues)
			}
		}
	}
	if total != 3 || uint64(total) != s.Stats().Dispatched {
		t.Errorf("fire calls saw %d items, scanner dispatched %d", total, s.Stats().Dispatched)
	}
	if fires[0].dues[0] != vclock.FromSeconds(1) {
		t.Errorf("earliest due %v, want 1s", fires[0].dues[0])
	}
}
