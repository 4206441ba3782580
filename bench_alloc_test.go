package repro

// Allocation-footprint companion to BenchmarkSessionQueueFanout: the
// same 8-way broadcast fan-out, but run through the pooled ingress
// (the path a TCP deployment takes) and bracketed with ReadMemStats so
// the bench reports what the allocation numbers actually buy — GC
// cycles and total stop-the-world pause accumulated per operation.
// BENCH_alloc.json records the gate: allocs/op on the fan-out path
// must stay ≤ 2 (TestAllocGateFanout).

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gatetest"
	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The bound of 2 leaves room for pool misses; 100 iterations warm the
// pools, where the first packet of a class pays its heap allocation.
func TestAllocGateFanout(t *testing.T) {
	for _, bench := range []string{"AllocFanout", "SessionQueueFanout"} {
		for _, shards := range []string{"/shards=1", "/shards=4"} {
			gatetest.Allocs(t, bench+shards, 100, 2)
		}
	}
}

func BenchmarkAllocFanout(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchAllocFanout(b, shards)
		})
	}
}

func benchAllocFanout(b *testing.B, shards int) {
	const receivers = 8
	clk := vclock.NewSystem(1000)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 500}})
	for i := 0; i < receivers; i++ {
		sc.AddNode(radio.NodeID(i+2), geom.V(float64(10*(i+1)), 0),
			[]radio.Radio{{Channel: 1, Range: 500}})
	}
	srv, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	pool := mbuf.NewPool()
	lis := transport.NewInprocListener()
	go srv.Serve(transport.PoolIngress(lis, pool))
	defer srv.Close()
	defer lis.Close()
	done := make(chan struct{}, 1<<20)
	for i := 0; i < receivers; i++ {
		c, err := core.Dial(core.ClientConfig{
			ID: radio.NodeID(i + 2), Dial: lis.Dialer(), LocalClock: clk,
			OnPacket: func(wire.Packet) { done <- struct{}{} },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
	}
	sender, err := core.Dial(core.ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk})
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload) * receivers))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Broadcast(1, 0, payload); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < receivers; k++ {
			<-done
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if drops := srv.Stats().QueueDrops; drops != 0 {
		b.Fatalf("lossless fan-out dropped %d deliveries", drops)
	}
	b.ReportMetric(float64(after.PauseTotalNs-before.PauseTotalNs)/float64(b.N), "gc-pause-ns/op")
	b.ReportMetric(float64(after.NumGC-before.NumGC), "gc-cycles")
	if st := pool.Stats(); st.Allocs > 0 {
		b.ReportMetric(float64(st.Hits)/float64(st.Allocs), "pool-hit-rate")
	}
}
