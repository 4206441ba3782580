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

// pushLocal must land every delivery on the shard owning its
// destination, preserve the original relative order inside each shard
// (the per-destination FIFO carrier), count every entry into the
// conservation ledger, and take each hit shard's schedule lock exactly
// once per packet — for a client packet's targets and for the runs of
// one packet in a trunk batch alike.
func TestPushItemsGroupsByShardPreservingOrder(t *testing.T) {
	const shards = 4
	sc, clk := shardTestScene()
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: shards,
		Peers: []PeerSpec{{Addr: "self"}}, ClusterID: "push-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pushLocks := make([]uint64, shards)
	// drain empties every shard and checks what it held against want,
	// the deliveries in push order, and its push locks against one per
	// listed packet with a delivery on that shard.
	drain := func(step string, want []sched.Item, packets [][]radio.NodeID) {
		t.Helper()
		for si, sh := range srv.shards {
			var wantHere []sched.Item
			for _, it := range want {
				if ShardIndex(it.To, shards) == si {
					wantHere = append(wantHere, it)
				}
			}
			var got []sched.Item
			sh.scanner.Drain(func(it sched.Item) { got = append(got, it) })
			if len(got) != len(wantHere) {
				t.Fatalf("%s: shard %d drained %d deliveries, want %d", step, si, len(got), len(wantHere))
			}
			for k := range wantHere {
				g, w := got[k], wantHere[k]
				if g.To != w.To || g.Pkt.Seq != w.Pkt.Seq || string(g.Pkt.Payload) != string(w.Pkt.Payload) {
					t.Fatalf("%s: shard %d delivery %d is %v of seq %d %q, want %v of seq %d %q (batching broke FIFO)",
						step, si, k, g.To, g.Pkt.Seq, g.Pkt.Payload, w.To, w.Pkt.Seq, w.Pkt.Payload)
				}
			}
			locks := uint64(0)
			for _, ids := range packets {
				for _, id := range ids {
					if ShardIndex(id, shards) == si {
						locks++
						break
					}
				}
			}
			if got := sh.scanner.Stats().PushLocks - pushLocks[si]; got != locks {
				t.Errorf("%s: shard %d took %d push locks, want %d: one per packet it hears", step, si, got, locks)
			}
			pushLocks[si] = sh.scanner.Stats().PushLocks
		}
	}

	due := vclock.FromMillis(5)
	var ids []radio.NodeID
	var want []sched.Item
	var scratch pushScratch
	for id := radio.NodeID(1); id <= 32; id++ {
		ids = append(ids, id)
		want = append(want, sched.Item{To: id, Pkt: wire.Packet{Seq: 7}})
		scratch.targets = append(scratch.targets, sched.Target{To: id, Due: due})
	}
	srv.pushLocal(&scratch, wire.Packet{Seq: 7}, scratch.targets)
	if got := srv.entered(); got != uint64(len(want)) {
		t.Errorf("entered %d, want %d", got, len(want))
	}
	if got := srv.Stats().Scheduled; got != len(want) {
		t.Errorf("Scheduled = %d, want %d: the schedule depth counts deliveries", got, len(want))
	}
	for si, sh := range srv.shards {
		w := 0
		for _, id := range ids {
			if ShardIndex(id, shards) == si {
				w++
			}
		}
		if n := sh.entered.Load(); n != uint64(w) {
			t.Errorf("shard %d entered %d, want %d", si, n, w)
		}
	}
	drain("client packet", want, [][]radio.NodeID{ids})

	// The single-target fast path still routes and counts correctly.
	scratch.targets = append(scratch.targets[:0], sched.Target{To: 9, Due: due})
	srv.pushLocal(&scratch, wire.Packet{Seq: 8}, scratch.targets)
	drain("single target", []sched.Item{{To: 9, Pkt: wire.Packet{Seq: 8}}}, [][]radio.NodeID{{9}})

	// A trunk batch holding packet A's entries, then B's, then A's
	// again: each run of one packet is one fan, so A's second run is a
	// fan of its own, and every shard keeps the batch's order. The last
	// run reuses A's (src, seq, stamp) for other bytes, which nothing
	// stops a client from sending: it is a fan of its own too, carrying
	// its own payload.
	runs := [][]radio.NodeID{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14}, {15, 16, 17, 18, 19, 20}, {21, 22, 23, 24}}
	seqs := []uint32{1, 2, 1, 1}
	payloads := []string{"a", "b", "a", "not a"}
	entered := srv.entered()
	tb := &wire.TrunkBatch{}
	want = want[:0]
	for r, run := range runs {
		pkt := wire.Packet{Src: 40, Seq: seqs[r], Stamp: due, Payload: []byte(payloads[r])}
		for _, id := range run {
			tb.Entries = append(tb.Entries, wire.TrunkEntry{Due: vclock.FromSeconds(3600), To: id, Pkt: pkt})
			want = append(want, sched.Item{To: id, Pkt: pkt})
		}
	}
	srv.cluster.ingestTrunkBatch(tb, &pushScratch{})
	if got := srv.entered() - entered; got != uint64(len(want)) {
		t.Errorf("trunk batch entered %d deliveries, want %d", got, len(want))
	}
	if got := srv.Cluster().RecvEntries; got != uint64(len(want)) {
		t.Errorf("RecvEntries %d, want %d", got, len(want))
	}
	drain("trunk batch", want, runs)
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
