package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Tests for the schedule's fan entries as the core sees them: a
// broadcast's receivers share heap entries, and nothing a client, the
// ledger, the flight recorder or a buffer pool can observe may tell.

// fanReceivers is how many neighbours hear fanRig's broadcaster.
const fanReceivers = 12

// fanRig is a server on a parked manual clock with VMN 1 in range of
// VMNs 2..fanReceivers+1, all connected: every due time is computed
// from stamp 0 against now 0, so a run is a pure function of the seed,
// whatever the shard count.
type fanRig struct {
	clk   *vclock.Manual
	srv   *Server
	pool  *mbuf.Pool
	src   *Client
	sinks []*sink
	lis   *transport.InprocListener
	stop  func()
}

func newFanRig(t *testing.T, shards int, model linkmodel.Model, mutate func(*ServerConfig)) *fanRig {
	t.Helper()
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	cfg := ServerConfig{
		Clock: clk, Scene: sc, Seed: 11, Shards: shards,
		TickStep: time.Hour, // keep mobility ticks off the manual clock
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis := transport.NewInprocListener()
	r := &fanRig{clk: clk, srv: srv, pool: mbuf.NewPool(), lis: lis}
	r.pool.SetLeakCheck(true)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(transport.PoolIngress(lis, r.pool)) }()
	var once sync.Once
	r.stop = func() { once.Do(func() { lis.Close(); srv.Close(); <-done }) }
	t.Cleanup(r.stop)

	if err := sc.SetLinkModel(1, model); err != nil {
		t.Fatal(err)
	}
	sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	dial := func(id radio.NodeID, sk *sink) *Client {
		cc := ClientConfig{ID: id, Dial: lis.Dialer(), LocalClock: clk, SyncRounds: 1}
		if sk != nil {
			cc.OnPacket = sk.on
		}
		c, err := Dial(cc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	for i := 0; i < fanReceivers; i++ {
		id := radio.NodeID(2 + i)
		sc.AddNode(id, geom.V(float64(5+i), 0), oneRadio(1, 200))
		sk := newSink()
		r.sinks = append(r.sinks, sk)
		dial(id, sk)
	}
	r.src = dial(1, nil)
	return r
}

// broadcast sends n broadcasts (Seq 1..n) and waits until every one is
// listed in the schedules; the parked clock fires none of them.
func (r *fanRig) broadcast(t *testing.T, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := r.src.Send(wire.Packet{Dst: radio.Broadcast, Channel: 1, Seq: uint32(i), Payload: []byte("fan")}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Received < uint64(n); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d", r.srv.Stats().Received, n)
		}
	}
}

// Per destination, the order packets leave in is the schedule's (due,
// push order) and nothing else: the same seed must produce the same
// per-destination sequence on one shard and on four, when a broadcast's
// receivers share one due time (one entry per shard) and when every
// receiver has its own (an entry each).
func TestBroadcastOrderSameAtEveryShardCount(t *testing.T) {
	const packets = 25
	models := map[string]linkmodel.Model{
		"constant": uniformModel(2 * time.Millisecond),
		"uniform": {
			Loss:      linkmodel.NoLoss{},
			Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e9},
			Delay:     linkmodel.UniformDelay{Min: time.Millisecond, Max: 5 * time.Millisecond},
		},
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			var perShards [][][]uint32
			for _, shards := range []int{1, 4} {
				r := newFanRig(t, shards, model, nil)
				// The hook sees fire order; the sinks see what clients got.
				var mu sync.Mutex
				fired := make([][]uint32, fanReceivers)
				r.srv.SetDeliverHook(func(it sched.Item) {
					mu.Lock()
					fired[it.To-2] = append(fired[it.To-2], it.Pkt.Seq)
					mu.Unlock()
				})
				r.broadcast(t, packets)
				if got := r.srv.Stats().Scheduled; got != packets*fanReceivers {
					t.Fatalf("shards=%d: Scheduled %d with the clock parked, want %d deliveries", shards, got, packets*fanReceivers)
				}
				r.clk.Set(vclock.FromSeconds(1))
				if !r.srv.Quiesce(5 * time.Second) {
					t.Fatalf("shards=%d: pipeline did not drain: %+v", shards, r.srv.Stats())
				}
				for i, sk := range r.sinks {
					for deadline := time.Now().Add(5 * time.Second); sk.count() < packets; time.Sleep(200 * time.Microsecond) {
						if time.Now().After(deadline) {
							t.Fatalf("shards=%d: VMN %d got %d of %d", shards, i+2, sk.count(), packets)
						}
					}
					sk.mu.Lock()
					for j, p := range sk.pkts {
						if p.Seq != fired[i][j] {
							t.Fatalf("shards=%d: VMN %d received seq %d at %d, fired %d", shards, i+2, p.Seq, j, fired[i][j])
						}
					}
					sk.mu.Unlock()
				}
				perShards = append(perShards, fired)
				r.stop()
			}
			reordered := false
			for i := 0; i < fanReceivers; i++ {
				one, four := perShards[0][i], perShards[1][i]
				if fmt.Sprint(one) != fmt.Sprint(four) {
					t.Fatalf("VMN %d: order %v on one shard, %v on four", i+2, one, four)
				}
				for j := 1; j < len(one); j++ {
					if one[j] < one[j-1] {
						reordered = true
					}
				}
			}
			// A constant link keeps send order; the uniform one must have
			// reordered something or the test compared nothing.
			if want := name == "uniform"; reordered != want {
				t.Fatalf("per-destination order departs from send order: %v, want %v", reordered, want)
			}
		})
	}
}

// A sampled broadcast leaves one lifecycle on the flight recorder: its
// ingest and resolve stages once, and one leg per receiver with its
// enqueue and send stages — keyed by the packet, with nothing carried
// through the schedule.
func TestSampledBroadcastCommitsOneTraceRecord(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		r := newFanRig(t, shards, uniformModel(2*time.Millisecond), func(c *ServerConfig) {
			c.Obs = obs.NewRegistry()
			c.ObsSampleEvery = 1
		})
		r.broadcast(t, 1)
		r.clk.Set(vclock.FromSeconds(1))
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
			if st := r.srv.Stats(); st.Forwarded == fanReceivers {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("forwarded %d of %d", st.Forwarded, fanReceivers)
			}
		}
		if !r.srv.Quiesce(5 * time.Second) {
			t.Fatal("pipeline did not drain")
		}
		ls := fidelity.Lifecycles(r.srv.Fidelity().Recorder().Snapshot())
		if len(ls) != 1 {
			t.Fatalf("%d lifecycles for one broadcast, want 1: %+v", len(ls), ls)
		}
		// (Ingest and Resolve read 0: the clock was parked at 0 through
		// ingest.)
		l := ls[0]
		if l.Src != 1 || l.Seq != 1 || l.Matched != fanReceivers || l.Kept != fanReceivers || len(l.Legs) != fanReceivers {
			t.Fatalf("lifecycle %+v, want one from VMN 1 seq 1 kept by all %d receivers", l, fanReceivers)
		}
		for i, g := range l.Legs {
			if g.To < 2 || g.To > fanReceivers+1 || g.Enqueue == 0 || g.Send < g.Enqueue {
				t.Fatalf("leg %d %+v: want a receiver in 2..%d that was enqueued and then sent", i, g, fanReceivers+1)
			}
		}
	})
}

// Every stage decides from the packet as the schedule carries it — the
// clamped stamp — so at one packet in four, ingest, the scanner and the
// writer sample exactly the same packets: the ring holds one whole
// lifecycle for each packet the sampler picks, and nothing else.
func TestSampledStagesAgreeOnClampedStamps(t *testing.T) {
	const every, packets = 4, 64
	r := newFanRig(t, 1, uniformModel(2*time.Millisecond), func(c *ServerConfig) { c.ObsSampleEvery = every })
	now := vclock.FromSeconds(1)
	r.clk.Set(now)
	const sender = radio.NodeID(100)
	if err := r.srv.cfg.Scene.AddNode(sender, geom.V(0, 5), oneRadio(1, 200)); err != nil {
		t.Fatal(err)
	}
	local := vclock.NewManual(now)
	c, err := Dial(ClientConfig{ID: sender, Dial: r.lis.Dialer(), LocalClock: local, SyncRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	local.Set(now.Add(time.Hour)) // every stamp is clamped to now + DefaultMaxStampSkew
	for seq := uint32(1); seq <= packets; seq++ {
		if err := c.Send(wire.Packet{Dst: 2, Channel: 1, Seq: seq, Payload: []byte("clamped")}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Received < packets; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d", r.srv.Stats().Received, packets)
		}
	}
	if st := r.srv.Stats(); st.StampClamped != packets {
		t.Fatalf("%d of %d stamps clamped", st.StampClamped, packets)
	}
	r.clk.Set(now.Add(2 * time.Second))
	for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Forwarded < packets; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("forwarded %d of %d", r.srv.Stats().Forwarded, packets)
		}
	}
	if !r.srv.Quiesce(5 * time.Second) {
		t.Fatal("pipeline did not drain")
	}
	clamped := int64(now.Add(DefaultMaxStampSkew))
	want := map[uint32]bool{}
	for seq := uint32(1); seq <= packets; seq++ {
		if fidelity.NewSampler(every).Sampled(uint32(sender), seq, clamped) {
			want[seq] = true
		}
	}
	ls := fidelity.Lifecycles(r.srv.Fidelity().Recorder().Snapshot())
	if len(want) == 0 || len(ls) != len(want) {
		t.Fatalf("%d lifecycles in the ring, want %d", len(ls), len(want))
	}
	for _, l := range ls {
		if !want[l.Seq] || l.Src != uint32(sender) || l.Stamp != clamped || !l.Complete() {
			t.Errorf("lifecycle %+v: want a whole record of a packet the sampler picks", l)
		}
	}
}

// Closing a server whose schedules still hold fans abandons every
// receiver of every entry: the ledger closes and each delivery's buffer
// reference goes back to the pool. So does closing one whose fans have
// fired into a wedged receiver's queue, where each entry is one holder
// of a wrapper the fan's other receivers shared and already released.
func TestCloseWithFansScheduledClosesLedger(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		const packets = 8
		t.Run("scheduled", func(t *testing.T) {
			r := newFanRig(t, shards, uniformModel(2*time.Millisecond), nil)
			r.broadcast(t, packets)
			if live := r.pool.Live(); live != packets {
				t.Fatalf("%d pooled buffers live with %d packets scheduled", live, packets)
			}
			r.stop()
			st := r.srv.Stats()
			if st.Entered != packets*fanReceivers || st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned {
				t.Fatalf("ledger: entered %d != forwarded %d + queueDrops %d + abandoned %d",
					st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
			}
			if st.Abandoned != st.Entered || st.Scheduled != 0 {
				t.Fatalf("abandoned %d of %d with %d still scheduled: the clock never moved", st.Abandoned, st.Entered, st.Scheduled)
			}
			if live := r.pool.Live(); live != 0 {
				t.Fatalf("%d pooled buffers still live after Close", live)
			}
		})
		t.Run("queued", func(t *testing.T) {
			r := newFanRig(t, shards, uniformModel(2*time.Millisecond), nil)
			const slow = radio.NodeID(100)
			r.srv.cfg.Scene.AddNode(slow, geom.V(0, 1), oneRadio(1, 200))
			wedged := newWedgedConn(slow)
			go r.srv.Serve(&oneConnListener{conn: wedged})
			await(t, wedged.acked, "the wedged receiver to register")
			r.broadcast(t, packets)
			r.clk.Set(vclock.FromSeconds(1))
			await(t, wedged.stuck, "the wedged receiver's writer to block in Send")
			for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Forwarded < packets*fanReceivers; time.Sleep(200 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("forwarded %d of %d", r.srv.Stats().Forwarded, packets*fanReceivers)
				}
			}
			// Every healthy receiver released its holder; the wedged one's
			// keep every packet's wrapper, and so its buffer, alive.
			if live := r.pool.Live(); live != packets {
				t.Fatalf("%d pooled buffers live with %d packets queued to a wedged receiver", live, packets)
			}
			r.stop()
			st := r.srv.Stats()
			if st.Entered != packets*(fanReceivers+1) || st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned {
				t.Fatalf("ledger: entered %d != forwarded %d + queueDrops %d + abandoned %d",
					st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
			}
			if st.Abandoned != packets || st.QueueDrops != 0 {
				t.Fatalf("abandoned %d, queue drops %d: want the wedged receiver's %d abandoned", st.Abandoned, st.QueueDrops, packets)
			}
			// A healthy client may still be reading its last packets out
			// of its closed pipe: each holds a holder until it has.
			for deadline := time.Now().Add(5 * time.Second); r.pool.Live() != 0; time.Sleep(200 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d pooled buffers still live after Close", r.pool.Live())
				}
			}
		})
	})
}

// A fired batch resolves its receivers' sessions under one shard read
// lock and pushes after releasing it, so a receiver can be reaped on
// either side of the lookup. Either way that one delivery is abandoned —
// by the missing session or by its closed queue — the rest of the batch
// is forwarded, and the ledger closes.
func TestDeliverBatchAcrossReapedSession(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		for _, when := range []string{"before lookup", "after lookup"} {
			t.Run(when, func(t *testing.T) {
				r := newFanRig(t, shards, uniformModel(2*time.Millisecond), nil)
				// The victim is the middle receiver of the fullest shard's
				// batch, which lists its receivers in ascending id.
				byShard := make([][]radio.NodeID, shards)
				for id := radio.NodeID(2); id <= fanReceivers+1; id++ {
					i := ShardIndex(id, shards)
					byShard[i] = append(byShard[i], id)
				}
				own := 0
				for i := range byShard {
					if len(byShard[i]) > len(byShard[own]) {
						own = i
					}
				}
				victim := byShard[own][len(byShard[own])/2]
				sh := r.srv.shards[own]
				reap := func() { // what the session's handler does when its client leaves
					sess := sh.lookup(victim)
					sess.conn.Close()
					sess.shutdown()
					sh.reap(sess)
				}
				var mu sync.Mutex
				var order []radio.NodeID // the owning shard's fire order
				r.srv.SetDeliverHook(func(it sched.Item) {
					if ShardIndex(it.To, shards) != own {
						return
					}
					mu.Lock()
					order = append(order, it.To)
					mu.Unlock()
					if it.To == victim && when == "after lookup" {
						reap() // on the scanner, between the lookup and the push
					}
				})
				r.broadcast(t, 1)
				if when == "before lookup" {
					reap()
				}
				r.clk.Set(vclock.FromSeconds(1))
				if !r.srv.Quiesce(5 * time.Second) {
					t.Fatalf("pipeline did not drain: %+v", r.srv.Stats())
				}
				mu.Lock()
				if len(order) != len(byShard[own]) || order[0] == victim || order[len(order)-1] == victim {
					t.Fatalf("shard %d fired %v: want VMN %d inside one batch of %d", own, order, victim, len(byShard[own]))
				}
				mu.Unlock()
				if st := r.srv.ShardStats()[own]; st.FireBatches != 1 {
					t.Fatalf("shard %d fired its receivers in %d batches, want 1", own, st.FireBatches)
				}
				for i, sk := range r.sinks {
					id, want := radio.NodeID(2+i), 1
					if id == victim {
						want = 0
					}
					for deadline := time.Now().Add(5 * time.Second); sk.count() < want; time.Sleep(200 * time.Microsecond) {
						if time.Now().After(deadline) {
							t.Fatalf("VMN %d got no packet", id)
						}
					}
					if got := sk.count(); got != want {
						t.Fatalf("VMN %d got %d packets, want %d", id, got, want)
					}
				}
				st := r.srv.Stats()
				if st.Entered != fanReceivers || st.Forwarded != fanReceivers-1 || st.Abandoned != 1 || st.QueueDrops != 0 {
					t.Fatalf("entered %d forwarded %d abandoned %d queueDrops %d, want %d, %d, 1, 0",
						st.Entered, st.Forwarded, st.Abandoned, st.QueueDrops, fanReceivers, fanReceivers-1)
				}
				r.stop()
				if live := r.pool.Live(); live != 0 {
					t.Fatalf("%d pooled buffers still live after Close", live)
				}
			})
		}
	})
}

// Remote targets leave on the trunk; the local remainder comes back in
// order for the per-shard push.
func TestRouteRemoteKeepsLocalTargetsInOrder(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(16), clk, 1)
	down := func() (transport.Conn, error) { return nil, transport.ErrClosed }
	srv, err := NewServer(ServerConfig{
		Clock: clk, Scene: sc, Shards: 1,
		Peers: []PeerSpec{{Addr: "self"}, {Addr: "peer", Dial: down}}, ClusterID: "route-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remoteA := ownedID(t, 1, 2, 1)
	remoteB := ownedID(t, 1, 2, remoteA+1)
	localA := ownedID(t, 0, 2, 1)
	localB := ownedID(t, 0, 2, localA+1)
	due := vclock.FromMillis(3)
	targets := []sched.Target{{To: remoteA, Due: due}, {To: localA, Due: due}, {To: remoteB, Due: due + 1}, {To: localB, Due: due + 2}}

	local := srv.cluster.routeRemote(&session{}, wire.Packet{Seq: 1}, targets)
	if len(local) != 2 || local[0] != (sched.Target{To: localA, Due: due}) || local[1] != (sched.Target{To: localB, Due: due + 2}) {
		t.Errorf("local targets %+v", local)
	}
	if cs := srv.Cluster(); cs.RemoteEntries+cs.TrunkDropped != 2 {
		t.Errorf("remote entries %d + trunk dropped %d, want 2 in all", cs.RemoteEntries, cs.TrunkDropped)
	}
}
