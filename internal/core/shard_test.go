package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// ShardIndex is the routing layer's only rule; it must be total,
// in-range, and deterministic, and it must not degenerate on strided
// operator IDs (nodes numbered 0, 10, 20, … are the common case).
func TestShardIndex(t *testing.T) {
	for id := radio.NodeID(0); id < 300; id++ {
		if got := ShardIndex(id, 1); got != 0 {
			t.Fatalf("ShardIndex(%d, 1) = %d, want 0", id, got)
		}
		if got := ShardIndex(id, 0); got != 0 {
			t.Fatalf("ShardIndex(%d, 0) = %d, want 0", id, got)
		}
		for _, n := range []int{2, 3, 4, 8} {
			got := ShardIndex(id, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardIndex(%d, %d) = %d out of range", id, n, got)
			}
			if again := ShardIndex(id, n); again != got {
				t.Fatalf("ShardIndex(%d, %d) unstable: %d then %d", id, n, got, again)
			}
		}
	}
	// Strided IDs must still spread: a plain id%n would pin stride-4
	// IDs onto one shard at n=4.
	hit := map[int]bool{}
	for id := radio.NodeID(0); id < 64; id += 4 {
		hit[ShardIndex(id, 4)] = true
	}
	if len(hit) < 3 {
		t.Errorf("stride-4 IDs landed on only %d/4 shards", len(hit))
	}
}

func shardTestScene() (*scene.Scene, vclock.WaitClock) {
	clk := vclock.NewSystem(1)
	return scene.New(radio.NewIndexed(16), clk, 1), clk
}

// Shard-count resolution: negative is an error, an explicit count is
// honoured, and zero means DefaultShards.
func TestServerConfigShardResolution(t *testing.T) {
	sc, clk := shardTestScene()
	if _, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Shards(); got != 3 {
		t.Errorf("Shards: 3 server runs %d shards", got)
	}
	srv2, err := NewServer(ServerConfig{Clock: clk, Scene: sc})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := srv2.Shards(), DefaultShards(); got != want {
		t.Errorf("default shard count %d, want DefaultShards() = %d", got, want)
	}
}

// pushItems must land every delivery on the shard owning its
// destination, preserve the original relative order inside each shard
// (the per-destination FIFO carrier), count every entry into the
// conservation ledger, and take each hit shard's schedule lock exactly
// once for the whole packet.
func TestPushItemsGroupsByShardPreservingOrder(t *testing.T) {
	const shards = 4
	sc, clk := shardTestScene()
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	due := vclock.FromMillis(5)
	var items []sched.Target
	for id := radio.NodeID(1); id <= 32; id++ {
		items = append(items, sched.Target{To: id, Due: due})
	}
	sess := &session{}
	sess.targets = append(sess.targets, items...)
	srv.pushItems(sess, wire.Packet{Seq: 7}, sess.targets)

	if got := srv.mEntered.Load(); got != uint64(len(items)) {
		t.Errorf("mEntered = %d, want %d", got, len(items))
	}
	if got := srv.Stats().Scheduled; got != len(items) {
		t.Errorf("Scheduled = %d, want %d: the schedule depth counts deliveries", got, len(items))
	}
	for si, sh := range srv.shards {
		var want []radio.NodeID
		for _, it := range items {
			if ShardIndex(it.To, shards) == si {
				want = append(want, it.To)
			}
		}
		var got []radio.NodeID
		sh.scanner.Drain(func(it sched.Item) {
			got = append(got, it.To)
		})
		if len(got) != len(want) {
			t.Fatalf("shard %d drained %v, want %v", si, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shard %d order %v, want %v (batching broke FIFO)", si, got, want)
			}
		}
		if n := sh.entered.Load(); n != uint64(len(want)) {
			t.Errorf("shard %d entered %d, want %d", si, n, len(want))
		}
		if st := sh.scanner.Stats(); len(want) > 0 && st.PushLocks != 1 {
			t.Errorf("shard %d took %d push locks for one packet, want 1", si, st.PushLocks)
		}
	}
	// The single-target fast path still routes and counts correctly.
	sess.targets = append(sess.targets[:0], sched.Target{To: 9, Due: due})
	srv.pushItems(sess, wire.Packet{Seq: 8}, sess.targets)
	sh := srv.shardOf(9)
	fired := 0
	sh.scanner.Drain(func(it sched.Item) {
		fired++
		if it.To != 9 || it.Pkt.Seq != 8 {
			t.Errorf("single push routed to wrong item %+v", it)
		}
	})
	if fired != 1 {
		t.Errorf("single push fired %d items, want 1", fired)
	}
}

// crossShardIDs picks one VMN id per shard at the given count, so every
// src→dst pair in the returned set crosses a shard boundary.
func crossShardIDs(t *testing.T, shards int) []radio.NodeID {
	t.Helper()
	var ids []radio.NodeID
	taken := make(map[int]bool, shards)
	for id := radio.NodeID(1); int(id) <= 250 && len(ids) < shards; id++ {
		if sh := ShardIndex(id, shards); !taken[sh] {
			taken[sh] = true
			ids = append(ids, id)
		}
	}
	if len(ids) != shards {
		t.Fatalf("could not find %d IDs on distinct shards in 1..250", shards)
	}
	return ids
}

// The hardest traffic pattern for the sharded core: all-pairs unicast
// between nodes placed one per shard, so EVERY delivery is ingested on
// one shard and scheduled on another. Per-(src,dst) FIFO must hold —
// each destination's deliveries fire from exactly one scanner — and
// after quiescing the conservation ledger must balance exactly with
// zero drops and zero abandonments.
func TestCrossShardAllPairsFIFOAndConservation(t *testing.T) {
	const shards = 4
	ids := crossShardIDs(t, shards)
	for _, src := range ids {
		for _, dst := range ids {
			if src != dst && ShardIndex(src, shards) == ShardIndex(dst, shards) {
				t.Fatalf("pair %d→%d does not cross shards", src, dst)
			}
		}
	}

	// Depth must exceed the 300 deliveries a destination can accumulate:
	// on a loaded single-core host the writer goroutine may not run until
	// the whole burst has fired, and the default 256-deep queue would
	// legitimately evict a packet (drop-oldest), failing the zero-drop
	// assertion below for capacity reasons rather than correctness ones.
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards; c.SendQueueDepth = 1024 })
	r.scene.SetLinkModel(1, uniformModel(time.Millisecond))
	for i, id := range ids {
		r.scene.AddNode(id, geom.V(float64(i)*10, 0), oneRadio(1, 500))
	}

	type recv struct {
		mu    sync.Mutex
		bySrc map[radio.NodeID][]uint32
		total int
	}
	receivers := make(map[radio.NodeID]*recv, shards)
	clients := make(map[radio.NodeID]*Client, shards)
	for _, id := range ids {
		rr := &recv{bySrc: map[radio.NodeID][]uint32{}}
		receivers[id] = rr
		c, err := Dial(ClientConfig{
			ID: id, Dial: r.lis.Dialer(), LocalClock: r.clk,
			OnPacket: func(p wire.Packet) {
				rr.mu.Lock()
				rr.bySrc[p.Src] = append(rr.bySrc[p.Src], p.Seq)
				rr.total++
				rr.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clients[id] = c
	}

	const n = 100
	for seq := uint32(1); seq <= n; seq++ {
		for _, src := range ids {
			for _, dst := range ids {
				if src == dst {
					continue
				}
				if err := clients[src].Send(wire.Packet{Dst: dst, Channel: 1, Seq: seq}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sent := n * shards * (shards - 1)

	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, rr := range receivers {
			rr.mu.Lock()
			got := rr.total
			rr.mu.Unlock()
			if got != n*(shards-1) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for id, rr := range receivers {
				rr.mu.Lock()
				t.Logf("dst %d: %d/%d", id, rr.total, n*(shards-1))
				rr.mu.Unlock()
			}
			t.Logf("server stats: %+v", r.server.Stats())
			for _, ss := range r.server.ShardStats() {
				t.Logf("shard: %+v", ss)
			}
			t.Fatal("all-pairs traffic never fully delivered")
		}
		time.Sleep(time.Millisecond)
	}
	if !r.server.Quiesce(5 * time.Second) {
		t.Fatalf("pipeline did not drain: %+v", r.server.Stats())
	}

	st := r.server.Stats()
	if st.Received != uint64(sent) || st.Forwarded != uint64(sent) {
		t.Errorf("received %d forwarded %d, want %d each", st.Received, st.Forwarded, sent)
	}
	if st.Entered != st.Forwarded || st.QueueDrops != 0 || st.Abandoned != 0 ||
		st.Dropped != 0 || st.NoRoute != 0 {
		t.Errorf("conservation violated: %+v", st)
	}

	for dst, rr := range receivers {
		rr.mu.Lock()
		for src, seqs := range rr.bySrc {
			if len(seqs) != n {
				t.Errorf("dst %d src %d: %d/%d delivered", dst, src, len(seqs), n)
			}
			for i := 1; i < len(seqs); i++ {
				if seqs[i] <= seqs[i-1] {
					t.Fatalf("dst %d src %d: seq %d after %d (cross-shard FIFO broken)",
						dst, src, seqs[i], seqs[i-1])
				}
			}
		}
		rr.mu.Unlock()
	}

	// Each shard hosted exactly one session and did real work.
	for _, ss := range r.server.ShardStats() {
		if ss.Clients != 1 {
			t.Errorf("shard %d: %d clients, want 1", ss.Shard, ss.Clients)
		}
		if ss.Entered == 0 || ss.Dispatched == 0 {
			t.Errorf("shard %d idle: %+v", ss.Shard, ss)
		}
	}
}
