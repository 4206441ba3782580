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
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gatetest"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// newDispatchBench builds an unstarted server over a populated scene:
// `nodes` VMNs in a row on channel 1, spaced so each hears a handful of
// neighbors. mutate, if given, edits the config first.
func newDispatchBench(tb testing.TB, nodes, shards int, mutate ...func(*ServerConfig)) *Server {
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
	cfg := ServerConfig{Clock: clk, Scene: sc, Seed: 1, Shards: shards}
	for _, m := range mutate {
		m(&cfg)
	}
	srv, err := NewServer(cfg)
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
// steady-state forwarding path (recording off, schedule warm) a packet
// enters the schedule with zero heap allocations — at ingest, with the
// neighbor/model lookup, target selection and the push into the shard's
// heap, in the base model and under SerializeChannels; and at trunk
// arrival, 16 packets × 4 receivers over 4 shards.
func TestIngestSteadyStateAllocFree(t *testing.T) {
	pkt := wire.Packet{
		Src: 3, Dst: radio.Broadcast, Channel: 1,
		Stamp: vclock.FromSeconds(100), Payload: make([]byte, 64),
	}
	for _, serialize := range []bool{false, true} {
		srv := newDispatchBench(t, 16, 1, func(cfg *ServerConfig) { cfg.SerializeChannels = serialize })
		sess := benchSession(3, srv)
		srv.ingest(sess, pkt) // warm the scratch buffer and the heap's backing array
		drainSchedules(srv)
		allocs := testing.AllocsPerRun(500, func() {
			srv.ingest(sess, pkt)
			drainSchedules(srv)
		})
		if allocs != 0 {
			t.Errorf("ingest (SerializeChannels %v) allocates %v per packet on the steady state, want 0", serialize, allocs)
		}
		if srv.Stats().Received == 0 {
			t.Fatal("ingest did not run")
		}
	}

	srv := newDispatchBench(t, 1, 4, func(cfg *ServerConfig) {
		cfg.Peers, cfg.ClusterID = []PeerSpec{{Addr: "self"}}, "alloc-test"
	})
	receivers := crossShardIDs(t, 4)
	tb := &wire.TrunkBatch{} // unpooled: ReleaseTrunkBatch leaves it to us
	var sc pushScratch
	arrive := func() {
		for p := uint32(0); p < 16; p++ {
			pkt.Seq = p
			for _, to := range receivers {
				tb.Entries = append(tb.Entries, wire.TrunkEntry{Due: pkt.Stamp.Add(time.Millisecond), To: to, Pkt: pkt})
			}
		}
		srv.cluster.ingestTrunkBatch(tb, &sc)
		drainSchedules(srv)
	}
	arrive() // warm the scratch, the entries and the heaps
	if allocs := testing.AllocsPerRun(500, arrive); allocs != 0 {
		t.Errorf("trunk arrival allocates %v per batch on the steady state, want 0", allocs)
	}
	if got, per := srv.Cluster().RecvEntries, uint64(16*len(receivers)); got < 500*per || got%per != 0 {
		t.Fatalf("RecvEntries %d: not every batch entered whole (%d entries each)", got, per)
	}
}

func TestAllocGateDeliverFiredBatch(t *testing.T) {
	gatetest.Allocs(t, "DeliverFiredBatch", 2000, 0)
}

// BenchmarkDeliverFiredBatch measures the scanner's hand-off of one
// fired broadcast: a 36-receiver batch — storm_inproc's fan — through
// the shard's fire callback into 36 sessions whose writers drain as
// fast as they can, releasing each popped holder of the fan's one
// shared wrapper as a send would. One shard read lock resolves the
// batch, and each delivery takes its session's queue lock once. ns/op
// and allocs/op are per batch; TestAllocGateDeliverFiredBatch gates
// allocs/op at 0, so the session scratch, the queue rings and the
// wrapper pool must stop growing once warm:
//
//	go test ./internal/core -run='^$' -bench=DeliverFiredBatch -benchmem
func BenchmarkDeliverFiredBatch(b *testing.B) {
	const fan = 36
	srv := newDispatchBench(b, 1, 1)
	sh := srv.shards[0]
	now := srv.cfg.Clock.Now() // the batch fires on time: a healthy shard
	batch := make([]sched.Item, fan)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range batch {
		id := radio.NodeID(100 + i)
		sess := benchSession(id, srv)
		sh.sessions[id] = sess
		batch[i] = sched.Item{Due: now, To: id, Pkt: wire.Packet{Src: 1, Channel: 1}}
		// Grow the ring to its bound before the writer starts draining
		// it, so no later burst can allocate a larger one.
		for j := 0; j < DefaultSendQueueDepth; j++ {
			sess.q.push(outMsg{kind: outData})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var popped []outMsg
			for {
				var ok bool
				if popped, ok = sess.q.popBatch(stop, popped, maxFlushBatch); !ok {
					return
				}
				for _, m := range popped {
					wire.ReleaseData(m.data) // as the writer's send does
				}
				sess.q.done(len(popped))
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	seq := uint32(0)
	fire := func() {
		seq++ // one broadcast per batch: a new packet, so sampling varies
		for i := range batch {
			batch[i].Pkt.Seq = seq
		}
		sh.fire(now, batch)
	}
	fire() // warm the flight recorder and histograms
	for _, sess := range sh.sessions {
		for sess.q.depth() != 0 { // the writers' pop slices reach full size
			runtime.Gosched()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fan), "ns/delivery")
}
