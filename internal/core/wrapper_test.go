package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Tests for fan-aware delivery's write half: the live receivers of one
// fired run share one pooled wire.Data, a holder each, and every way a
// holder leaves the pipeline releases it once.

// wrapperRig is a server on a parked manual clock whose receivers are
// raw in-process connections, so a test sees the very *wire.Data each
// receiver is handed. VMN 1 (a Client) reaches every receiver; every due
// is stamp 0 + 2 ms, so a broadcast's receivers fire together.
type wrapperRig struct {
	clk   *vclock.Manual
	srv   *Server
	pool  *mbuf.Pool // nil when ingress is unpooled
	src   *Client
	lis   *transport.InprocListener
	conns map[radio.NodeID]transport.Conn
	stop  func()
}

func newWrapperRig(t *testing.T, shards int, ids []radio.NodeID, pooled bool, mutate func(*ServerConfig)) *wrapperRig {
	t.Helper()
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	cfg := ServerConfig{Clock: clk, Scene: sc, Seed: 11, Shards: shards, TickStep: time.Hour}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis := transport.NewInprocListener()
	r := &wrapperRig{clk: clk, srv: srv, lis: lis, conns: map[radio.NodeID]transport.Conn{}}
	var front transport.Listener = lis
	if pooled {
		r.pool = mbuf.NewPool()
		r.pool.SetLeakCheck(true)
		front = transport.PoolIngress(lis, r.pool)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(front) }()
	var once sync.Once
	r.stop = func() { once.Do(func() { lis.Close(); srv.Close(); <-done }) }
	t.Cleanup(r.stop)

	if err := sc.SetLinkModel(1, uniformModel(2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	for i, id := range ids {
		sc.AddNode(id, geom.V(float64(i%20)*5, float64(1+i/20)*5), oneRadio(1, 200))
		r.conns[id] = rawSession(t, lis, id)
	}
	r.src, err = Dial(ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk, SyncRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.src.Close)
	return r
}

// send transmits pkts from VMN 1 and waits until the server has listed
// them; the parked clock fires none.
func (r *wrapperRig) send(t *testing.T, pkts ...wire.Packet) {
	t.Helper()
	r.sendFrom(t, r.src, pkts...)
}

// sendFrom is send from another client of the rig's server.
func (r *wrapperRig) sendFrom(t *testing.T, c *Client, pkts ...wire.Packet) {
	t.Helper()
	want := r.srv.Stats().Received + uint64(len(pkts))
	for _, p := range pkts {
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Received < want; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d", r.srv.Stats().Received, want)
		}
	}
}

// recvData returns the next Data id's connection delivers, skipping
// scene notifications; the caller releases it.
func (r *wrapperRig) recvData(t *testing.T, id radio.NodeID) *wire.Data {
	t.Helper()
	got := make(chan *wire.Data, 1)
	go func() {
		for {
			m, err := r.conns[id].Recv()
			if err != nil {
				got <- nil
				return
			}
			if d, ok := m.(*wire.Data); ok {
				got <- d
				return
			}
		}
	}()
	select {
	case d := <-got:
		if d == nil {
			t.Fatalf("VMN %v: connection ended before a packet arrived", id)
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatalf("VMN %v: no packet arrived", id)
		return nil
	}
}

// closeLedger stops the rig and checks that every delivery ended in
// exactly one of forwarded, queue-dropped or abandoned, and that every
// pooled buffer went back.
func (r *wrapperRig) closeLedger(t *testing.T) ServerStats {
	t.Helper()
	r.stop()
	st := r.srv.Stats()
	if st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned || st.Scheduled != 0 {
		t.Fatalf("ledger: entered %d != forwarded %d + queueDrops %d + abandoned %d (%d scheduled)",
			st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned, st.Scheduled)
	}
	if r.pool != nil {
		if live := r.pool.Live(); live != 0 {
			t.Fatalf("%d pooled buffers still live after Close", live)
		}
	}
	return st
}

func receiverIDs(n int) []radio.NodeID {
	ids := make([]radio.NodeID, n)
	for i := range ids {
		ids[i] = radio.NodeID(2 + i)
	}
	return ids
}

// The receivers of one broadcast that fire in one batch are handed the
// same *wire.Data: at one shard all twelve, at four shards those of each
// shard (every shard fires its own batch, so wrappers differ across
// shards). Its payload is the packet's.
func TestFiredFanSharesOneWrapper(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		ids := receiverIDs(fanReceivers)
		r := newWrapperRig(t, shards, ids, true, nil)
		r.send(t, wire.Packet{Dst: radio.Broadcast, Channel: 1, Seq: 1, Payload: []byte("fan")})
		r.clk.Set(vclock.FromSeconds(1))
		byShard := map[int]*wire.Data{}
		var held []*wire.Data
		for _, id := range ids {
			d := r.recvData(t, id)
			held = append(held, d)
			if string(d.Pkt.Payload) != "fan" || d.Pkt.Seq != 1 || d.Pkt.Src != 1 {
				t.Fatalf("VMN %v got %+v", id, d.Pkt)
			}
			sh := ShardIndex(id, shards)
			if w, ok := byShard[sh]; ok && w != d {
				t.Fatalf("VMN %v got wrapper %p, another receiver on shard %d got %p", id, d, sh, w)
			}
			byShard[sh] = d
		}
		seen := map[*wire.Data]int{}
		for sh, d := range byShard {
			if other, ok := seen[d]; ok {
				t.Fatalf("shards %d and %d fired separately but share wrapper %p", other, sh, d)
			}
			seen[d] = sh
		}
		for _, d := range held {
			wire.ReleaseData(d)
		}
		if st := r.closeLedger(t); st.Forwarded != fanReceivers {
			t.Fatalf("forwarded %d of %d", st.Forwarded, fanReceivers)
		}
	})
}

// A fan longer than the scanner's batch is cut at the batch boundary:
// each part is delivered by its own fire call, with a wrapper of its
// own. Every receiver is owned by shard 0, so at four shards as at one
// the fan's 300 receivers fire as 256 + 44, in ascending ID order.
func TestFanCutByBatchBoundaryGetsOneWrapperPerBatch(t *testing.T) {
	const receivers = 300
	forEachShardCount(t, func(t *testing.T, shards int) {
		var ids []radio.NodeID
		for id := radio.NodeID(2); len(ids) < receivers; id++ {
			if ShardIndex(id, shards) == 0 {
				ids = append(ids, id)
			}
		}
		r := newWrapperRig(t, shards, ids, true, nil)
		r.send(t, wire.Packet{Dst: radio.Broadcast, Channel: 1, Seq: 1, Payload: []byte("cut")})
		r.clk.Set(vclock.FromSeconds(1))
		got := make([]*wire.Data, len(ids))
		for i, id := range ids {
			got[i] = r.recvData(t, id)
		}
		for i, d := range got {
			first := got[0]
			if i >= 256 {
				first = got[256]
			}
			if d != first {
				t.Fatalf("receiver %d of %d (VMN %v) got wrapper %p, want its batch's %p", i, len(ids), ids[i], d, first)
			}
		}
		if got[0] == got[256] {
			t.Fatalf("both batches share wrapper %p", got[0])
		}
		if st := r.srv.ShardStats()[0]; st.FireBatches != 2 {
			t.Fatalf("shard 0 fired %d batches, want 2", st.FireBatches)
		}
		for _, d := range got {
			wire.ReleaseData(d)
		}
		if st := r.closeLedger(t); st.Forwarded != receivers {
			t.Fatalf("forwarded %d of %d", st.Forwarded, receivers)
		}
	})
}

// Consecutive items of a fired batch share a wrapper only when they
// carry one scheduled packet. Two packets equal in every header field
// sit side by side in the batch (a constant link gives them one due) and
// must still reach each receiver as two wrappers with their own bytes:
// a client that reuses a seq and stamp for other bytes (unpooled ingress,
// so only the payload's memory tells them apart), and two packets of one
// trunk frame (one buffer, two offsets).
func TestDistinctPacketsNeverShareAWrapper(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		for _, via := range []string{"reused seq and stamp", "one trunk frame"} {
			t.Run(via, func(t *testing.T) {
				ids := receiverIDs(4)
				r := newWrapperRig(t, shards, ids, false, func(c *ServerConfig) {
					c.Peers, c.ClusterID = []PeerSpec{{Addr: "self"}}, "wrapper-test"
				})
				a := wire.Packet{Src: 1, Dst: radio.Broadcast, Channel: 1, Seq: 7, Payload: []byte("aaa")}
				b := a
				b.Payload = []byte("bbb")
				var pool *mbuf.Pool
				if via == "reused seq and stamp" {
					r.send(t, a, b)
				} else {
					pool = mbuf.NewPool()
					pool.SetLeakCheck(true)
					tb := &wire.TrunkBatch{}
					for _, p := range []wire.Packet{a, b} {
						for _, id := range ids {
							tb.Entries = append(tb.Entries, wire.TrunkEntry{Due: vclock.FromMillis(2), To: id, Pkt: p})
						}
					}
					frame, err := wire.AppendFrame(nil, tb)
					if err != nil {
						t.Fatal(err)
					}
					buf := mbuf.AllocCopy(pool, frame[4:])
					m, err := wire.DecodeFrameRef(buf.Bytes(), buf)
					if err != nil {
						t.Fatal(err)
					}
					in := m.(*wire.TrunkBatch)
					if in.Entries[0].Pkt.Buf != in.Entries[len(ids)].Pkt.Buf {
						t.Fatal("the frame's two packets are not on one buffer")
					}
					r.srv.cluster.ingestTrunkBatch(in, &pushScratch{})
				}
				r.clk.Set(vclock.FromSeconds(1))
				var held []*wire.Data // until every receiver has both
				for _, id := range ids {
					first := r.recvData(t, id)
					second := r.recvData(t, id)
					if string(first.Pkt.Payload) != "aaa" || string(second.Pkt.Payload) != "bbb" {
						t.Fatalf("VMN %v got %q then %q, want aaa then bbb", id, first.Pkt.Payload, second.Pkt.Payload)
					}
					if first == second {
						t.Fatalf("VMN %v got both packets in wrapper %p", id, first)
					}
					held = append(held, first, second)
				}
				for _, d := range held {
					wire.ReleaseData(d)
				}
				if st := r.closeLedger(t); st.Entered != uint64(2*len(ids)) || st.Forwarded != st.Entered {
					t.Fatalf("entered %d deliveries and forwarded %d, want %d", st.Entered, st.Forwarded, 2*len(ids))
				}
				if pool != nil {
					if live := pool.Live(); live != 0 {
						t.Fatalf("%d trunk frame buffers still live", live)
					}
				}
			})
		}
	})
}

// A receiver whose writer is wedged holds its holders in a full queue,
// so drop-oldest evicts shared wrappers while the fan's other receivers
// are forwarded theirs: each eviction releases one holder, the evicted
// packets' buffers go back once the healthy receivers are done, and
// Close releases the holders still queued.
func TestDropOldestEvictsSharedWrapper(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		const packets, depth = 10, 4
		ids := receiverIDs(fanReceivers)
		r := newWrapperRig(t, shards, ids, true, func(c *ServerConfig) { c.SendQueueDepth = depth })
		const slow = radio.NodeID(100)
		r.srv.cfg.Scene.AddNode(slow, geom.V(0, 1), oneRadio(1, 200))
		wedged := newWedgedConn(slow)
		go r.srv.Serve(&oneConnListener{conn: wedged})
		await(t, wedged.acked, fmt.Sprintf("VMN %v to register", slow))
		// One packet at a time, each fired and taken by every healthy
		// receiver before the next is sent, so only the wedged queue ever
		// holds more than one entry.
		for seq := uint32(1); seq <= packets; seq++ {
			r.send(t, wire.Packet{Dst: radio.Broadcast, Channel: 1, Seq: seq, Payload: []byte("evict")})
			r.clk.Set(vclock.FromMillis(10 * int64(seq)))
			for _, id := range ids {
				d := r.recvData(t, id)
				if d.Pkt.Seq != seq {
					t.Fatalf("VMN %v got seq %d, want %d", id, d.Pkt.Seq, seq)
				}
				wire.ReleaseData(d)
			}
		}
		await(t, wedged.stuck, fmt.Sprintf("VMN %v's writer to block in Send", slow))
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
			st := r.srv.Stats()
			if st.Forwarded == packets*fanReceivers && st.QueueDrops >= packets-depth-1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("forwarded %d, queue drops %d: want %d and at least %d", st.Forwarded, st.QueueDrops,
					packets*fanReceivers, packets-depth-1)
			}
		}
		// What is live now is exactly what the wedged receiver still
		// holds: its queued packets, and at most one inside its stuck Send.
		if live := r.pool.Live(); live < depth || live > depth+1 {
			t.Fatalf("%d buffers live with the wedged receiver holding %d or %d", live, depth, depth+1)
		}
		st := r.closeLedger(t)
		if st.QueueDrops+st.Abandoned != packets {
			t.Fatalf("wedged receiver: %d dropped + %d abandoned, want %d", st.QueueDrops, st.Abandoned, packets)
		}
	})
}

// Two broadcasters' fans interleave in one fired batch over overlapping
// receivers, so a receiver appears several times in its shard's batch.
// deliver stages each receiver's deliveries and pushes them as one run:
// every client receives its packets in the batch's order, a receiver
// reaped on the scanner after the batch's lookup has its whole run
// abandoned by its closed queue, and once the batch is delivered no
// session keeps a staged entry (nor a wrapper in a slot) and no shard a
// dirty session.
func TestFiredBatchPushesOneRunPerReceiver(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		const packets = 3 // per broadcaster
		ids := receiverIDs(fanReceivers)
		r := newWrapperRig(t, shards, ids, true, nil)
		// VMN 90 reaches only the far end of the row of receivers, all of
		// which VMN 1 reaches.
		const other = radio.NodeID(90)
		r.srv.cfg.Scene.AddNode(other, geom.V(220, 5), oneRadio(1, 200))
		src2, err := Dial(ClientConfig{ID: other, Dial: r.lis.Dialer(), LocalClock: r.clk, SyncRounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(src2.Close)
		victim := ids[len(ids)-2] // in reach of both broadcasters
		sessions := map[radio.NodeID]*session{}
		for _, id := range ids {
			sessions[id] = r.srv.shardOf(id).lookup(id)
		}
		type delivery struct {
			src radio.NodeID
			seq uint32
		}
		var mu sync.Mutex
		fired := map[radio.NodeID][]delivery{} // each receiver's items in batch order
		r.srv.SetDeliverHook(func(it sched.Item) {
			mu.Lock()
			fired[it.To] = append(fired[it.To], delivery{it.Pkt.Src, it.Pkt.Seq})
			first := it.To == victim && len(fired[it.To]) == 1
			mu.Unlock()
			if first { // on the scanner, after the batch's lookup: what the handler does when the client leaves
				sess := sessions[victim]
				sess.conn.Close()
				sess.q.close()
				r.srv.shardOf(victim).reap(sess)
			}
		})
		// Ingested one at a time, so the schedule lists the fans as
		// 1:1, 90:1, 1:2, 90:2, ...: all due at 2 ms, in one batch a shard.
		for seq := uint32(1); seq <= packets; seq++ {
			for _, c := range []*Client{r.src, src2} {
				r.sendFrom(t, c, wire.Packet{Dst: radio.Broadcast, Channel: 1, Seq: seq, Payload: []byte("run")})
			}
		}
		r.clk.Set(vclock.FromSeconds(1))
		if !r.srv.Quiesce(5 * time.Second) {
			t.Fatalf("pipeline did not drain: %+v", r.srv.Stats())
		}
		for i, st := range r.srv.ShardStats() {
			if st.FireBatches > 1 {
				t.Fatalf("shard %d fired %d batches, want at most 1", i, st.FireBatches)
			}
		}

		mu.Lock()
		defer mu.Unlock()
		both, oneOnly, total := 0, 0, 0
		for _, id := range ids {
			got := fired[id]
			total += len(got)
			switch len(got) {
			case 2 * packets:
				both++
			case packets:
				oneOnly++
			default:
				t.Fatalf("VMN %v fired %v, want %d or %d packets", id, got, packets, 2*packets)
			}
		}
		if both == 0 || oneOnly == 0 || len(fired[victim]) != 2*packets {
			t.Fatalf("%d receivers of both broadcasters, %d of one, victim %v fired %d: want overlapping fans over the victim",
				both, oneOnly, victim, len(fired[victim]))
		}
		for _, id := range ids {
			if id == victim {
				continue
			}
			for i, want := range fired[id] {
				d := r.recvData(t, id)
				if got := (delivery{d.Pkt.Src, d.Pkt.Seq}); got != want {
					t.Fatalf("VMN %v packet %d is %v, batch order has %v (all: %v)", id, i, got, want, fired[id])
				}
				wire.ReleaseData(d)
			}
		}
		st := r.srv.Stats()
		lost := uint64(len(fired[victim]))
		if st.Entered != uint64(total) || st.Abandoned != lost || st.Forwarded != st.Entered-lost || st.QueueDrops != 0 {
			t.Fatalf("entered %d, forwarded %d, abandoned %d, dropped %d: want %d entered and the victim's %d abandoned",
				st.Entered, st.Forwarded, st.Abandoned, st.QueueDrops, total, lost)
		}
		// Quiesce waited for every fire call to return, which orders the
		// scanners' writes before these reads.
		for id, sess := range sessions {
			if len(sess.staged) != 0 || cap(sess.staged) == 0 {
				t.Fatalf("VMN %v: staged len %d cap %d after the batch, want empty and used", id, len(sess.staged), cap(sess.staged))
			}
			for i, m := range sess.staged[:cap(sess.staged)] {
				if m != (outMsg{}) {
					t.Fatalf("VMN %v: staged slot %d still holds %+v", id, i, m)
				}
			}
		}
		for i, sh := range r.srv.shards {
			if len(sh.dirty) != 0 {
				t.Fatalf("shard %d: %d dirty sessions after the batch", i, len(sh.dirty))
			}
			for j, sess := range sh.dirty[:cap(sh.dirty)] {
				if sess != nil {
					t.Fatalf("shard %d: dirty slot %d still holds VMN %v", i, j, sess.id)
				}
			}
		}
		r.closeLedger(t)
	})
}
