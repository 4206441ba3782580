package sched

// Schedule-storm benchmarks for the batch-firing scanner. The storm
// shape — several producers pushing items that come due almost at once —
// is the §3.2 hot path under fan-out, where the pre-batching loop paid
// two mutex cycles per fired packet plus a goroutine per sleep.
//
// Run with:
//
//	go test ./internal/sched -run='^$' -bench='ScannerStorm|ScannerSleepFire' -benchmem
//
// On a single-core host the lock/wakeup/alloc counters are the primary
// result (contention wins need parallelism to show up in wall time);
// re-record wall-clock figures on a multi-core machine.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gatetest"
	"repro/internal/radio"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The storm runs many iterations so the heap and its spare list reach
// steady state. Its allocs/op is per fired item; TestPushFanSteadyStateAllocFree
// counts per fan, and TestAllocGateScannerSleepFire gates the sleep/fire cycle.
func TestAllocGateSchedule(t *testing.T) {
	gatetest.Allocs(t, "ScannerStorm/fan=36", 200000, 0)
	gatetest.Allocs(t, "ScheduleQueueImpls/in-order/heap", 2000, 0)
}

// BenchmarkScannerStorm drives a 4-producer schedule storm through one
// scanner and reports the accounting the batching is meant to improve:
// scanner-side lock acquisitions per fired item (fire-locks/item), total
// lock cycles per item including the producer side (locks/item), mean
// fire-batch depth, and wakeups per item. ns/op is per fired item in
// both legs: fan=1 pushes items one Push at a time, fan=36 pushes
// broadcasts — one PushFan of 36 equal-due targets, one heap entry — and
// must allocate nothing once the heap and its spare list have grown
// (TestAllocGateSchedule).
func BenchmarkScannerStorm(b *testing.B) {
	for _, fan := range []int{1, 36} {
		b.Run(fmt.Sprintf("fan=%d", fan), func(b *testing.B) { benchScannerStorm(b, fan) })
	}
}

func benchScannerStorm(b *testing.B, fan int) {
	clk := vclock.NewSystem(1000) // 1 ms wall = 1 s emulated
	var fired atomic.Int64
	doneAll := make(chan struct{})
	pushes := (b.N + fan - 1) / fan
	total := int64(pushes * fan)
	s := NewScanner(clk, func(_ vclock.Time, batch []Item) {
		if fired.Add(int64(len(batch))) == total {
			close(doneAll)
		}
	})
	s.Start()
	defer s.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	const pushers = 4
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			targets := make([]Target, fan)
			for i := range targets {
				targets[i].To = radio.NodeID(i + 1)
			}
			// Deadlines spread over ~64 ms emulated (64 µs wall):
			// every push lands in a burst that is due by the time
			// the scanner gets around to it — the storm regime.
			for i := g; i < pushes; i += pushers {
				due := clk.Now().Add(time.Duration(i%64) * time.Millisecond)
				for j := range targets {
					targets[j].Due = due
				}
				s.PushFan(wire.Packet{}, targets)
			}
		}(g)
	}
	wg.Wait()
	<-doneAll
	b.StopTimer()
	st := s.Stats()
	n := float64(st.Dispatched)
	if n == 0 {
		return
	}
	batches := float64(st.Batches)
	if batches == 0 {
		batches = 1
	}
	b.ReportMetric(float64(st.FireLocks)/n, "fire-locks/item")
	b.ReportMetric(float64(st.FireLocks+st.PushLocks)/n, "locks/item")
	b.ReportMetric(n/batches, "items/batch")
	b.ReportMetric(float64(st.Wakeups)/n, "wakeups/item")
	if kicks := st.KicksElided + st.KicksDelivered; kicks > 0 {
		b.ReportMetric(float64(st.KicksElided)/float64(kicks), "elide-rate")
	}
}

// BenchmarkScannerSleepFire measures one complete push → sleep → wake →
// fire → re-park cycle. The allocation figure is the acceptance gate
// (TestAllocGateScannerSleepFire): a scanner sleep must allocate nothing and
// spawn no goroutine, where the old shape paid one goroutine and two
// channels per sleep.
func BenchmarkScannerSleepFire(b *testing.B) {
	clk := vclock.NewSystem(1000) // 2 ms emulated = 2 µs wall per sleep
	fired := make(chan struct{}, 1)
	s := NewScanner(clk, func(vclock.Time, []Item) { fired <- struct{}{} })
	s.Start()
	defer s.Stop()
	push(s, Item{Due: clk.Now().Add(2 * time.Millisecond)})
	<-fired // warm the schedule's backing array
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(s, Item{Due: clk.Now().Add(2 * time.Millisecond)})
		<-fired
	}
}
