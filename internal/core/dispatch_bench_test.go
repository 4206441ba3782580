package core

// BenchmarkDispatchParallel measures the §3.2 scheduling hot path —
// ingest: neighbor+model resolution from the lock-free epoch snapshot
// (one atomic load, zero copies), link-model evaluation, and the push
// into the destination shards' schedules — with many sessions sending
// concurrently. The scanners are never started; each sender drains the
// schedules every few packets so heap depth stays bounded and the
// benchmark isolates ingest from scanner/writer throughput. Reported
// metrics: pkt/s and allocs/op (0 on the steady state).
//
//	go test ./internal/core -run='^$' -bench=DispatchParallel -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// newDispatchBench builds an unstarted server over a populated scene:
// `nodes` VMNs in a row on channel 1, spaced so each hears a handful of
// neighbors.
func newDispatchBench(tb testing.TB, nodes, shards int) *Server {
	tb.Helper()
	clk := vclock.NewManual(vclock.FromSeconds(100))
	sc := scene.New(radio.NewIndexed(120), clk, 1)
	for id := 0; id < nodes; id++ {
		err := sc.AddNode(radio.NodeID(id), geom.V(float64(id)*40, 0),
			[]radio.Radio{{Channel: 1, Range: 120}})
		if err != nil {
			tb.Fatal(err)
		}
	}
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Seed: 1, Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// drainSchedules empties every shard's schedule: the dispatch benches
// never start the scanners, so this is what keeps the heaps shallow.
func drainSchedules(srv *Server) {
	for _, sh := range srv.shards {
		sh.scanner.Drain(func(sched.Item) {})
	}
}

func benchSession(id radio.NodeID, srv *Server) *session {
	sess := &session{
		id:   id,
		q:    newSendQueue(0, srv.mQueueDrops, srv.mAbandoned),
		stop: make(chan struct{}),
	}
	sess.rng = rand.New(&sess.dice)
	return sess
}

func BenchmarkDispatchParallel(b *testing.B) {
	const nodes = 32
	// 4 shards spread the schedule-push half of the hot path over four
	// scanner mutexes: on multi-core hosts concurrent sessions stop
	// serializing on one.
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv := newDispatchBench(b, nodes, shards)
			var next int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// One session per benchmark goroutine, like one per client.
				id := radio.NodeID(int(next) % nodes)
				next++
				sess := benchSession(id, srv)
				pkt := wire.Packet{
					Src: id, Dst: radio.Broadcast, Channel: 1,
					Stamp: vclock.FromSeconds(100), Payload: make([]byte, 64),
				}
				for pb.Next() {
					pkt.Seq++
					srv.ingest(sess, pkt)
					if pkt.Seq%64 == 0 {
						drainSchedules(srv)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkt/s")
		})
	}
}

// TestIngestSteadyStateAllocFree pins the acceptance criterion: on the
// steady-state forwarding path (recording off, schedule warm) ingest
// performs zero heap allocations for the neighbor/model lookup, target
// selection and the push into the shard's heap.
func TestIngestSteadyStateAllocFree(t *testing.T) {
	srv := newDispatchBench(t, 16, 1)
	sess := benchSession(3, srv)
	pkt := wire.Packet{
		Src: 3, Dst: radio.Broadcast, Channel: 1,
		Stamp: vclock.FromSeconds(100), Payload: make([]byte, 64),
	}
	srv.ingest(sess, pkt) // warm the scratch buffer and the heap's backing array
	drainSchedules(srv)
	allocs := testing.AllocsPerRun(500, func() {
		srv.ingest(sess, pkt)
		drainSchedules(srv)
	})
	if allocs != 0 {
		t.Errorf("ingest allocates %v per packet on the steady state, want 0", allocs)
	}
	if srv.Stats().Received == 0 {
		t.Fatal("ingest did not run")
	}
}
