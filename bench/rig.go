package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// rig is one assembled emulation: the server (two under federation)
// put together the way cmd/poemd does it — default shards, default
// sampling, fidelity monitor on, pooled listener — plus one connected
// client per scene node, all on one shared real-time clock so that
// emulated time is wall time and a due time can be checked from outside.
type rig struct {
	w   workload
	in  *inputs
	clk *vclock.System

	scenes  []*scene.Scene
	servers []*core.Server
	pools   []*mbuf.Pool
	liss    []transport.Listener
	served  []chan struct{}
	store   *record.Store
	clients []*core.Client // index = node id - 1

	dialNs   atomic.Int64 // summed core.Dial call time
	addNodes time.Duration
	closed   bool
}

func (w *workload) model() (linkmodel.Model, error) {
	var loss linkmodel.LossModel = linkmodel.NoLoss{}
	if w.Loss > 0 {
		loss = linkmodel.ConstantLoss{P: w.Loss}
	}
	return linkmodel.New(loss, linkmodel.ConstantBandwidth{Bps: w.Bps}, linkmodel.ConstantDelay{D: w.Delay})
}

// buildRig assembles servers and scene and connects every client.
// onPacket(i) supplies client i's receive callback. traced switches the
// servers to time every packet (ObsSampleEvery 1) for the per-layer
// pass; the untraced pass keeps the deployed default.
func buildRig(w workload, in *inputs, clk *vclock.System, traced bool, onPacket func(id radio.NodeID) func(wire.Packet)) (r *rig, err error) {
	r = &rig{w: w, in: in, clk: clk}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	model, err := w.model()
	if err != nil {
		return r, err
	}
	peers := 1
	if w.Trunk {
		peers = 2
	}
	var specs []core.PeerSpec
	var dialers []transport.Dialer
	for p := 0; p < peers; p++ {
		pool := mbuf.NewPool()
		var l transport.Listener
		if w.TCP {
			if l, err = transport.ListenTCPWithPool("127.0.0.1:0", pool); err != nil {
				return r, err
			}
			dialers = append(dialers, transport.TCPDialer(l.Addr()))
		} else {
			inproc := transport.NewInprocListener()
			l = transport.PoolIngress(inproc, pool)
			dialers = append(dialers, inproc.Dialer())
		}
		r.liss, r.pools = append(r.liss, l), append(r.pools, pool)
		specs = append(specs, core.PeerSpec{Addr: l.Addr()})
	}
	if w.Record && traced {
		r.store = record.NewStore()
	}
	for p := 0; p < peers; p++ {
		sc := scene.New(radio.NewIndexed(radioRange), r.clk, in.SceneSeed)
		if err := sc.SetLinkModel(channel, model); err != nil {
			return r, err
		}
		cfg := core.ServerConfig{Clock: r.clk, Scene: sc, Store: r.store, Seed: in.ServerSeed,
			Obs: obs.NewRegistry()}
		if w.Static {
			cfg.TickStep = 10 * time.Second
		}
		if traced {
			cfg.ObsSampleEvery = 1
		}
		if w.Trunk {
			cfg.Peers, cfg.Self, cfg.ClusterID = specs, p, "bench"
		}
		srv, err := core.NewServer(cfg)
		if err != nil {
			return r, err
		}
		r.pools[p].Instrument(srv.Obs())
		r.scenes, r.servers = append(r.scenes, sc), append(r.servers, srv)
		done := make(chan struct{})
		r.served = append(r.served, done)
		go func(l transport.Listener) { defer close(done); srv.Serve(l) }(r.liss[p])
	}

	// The scene is built on the coordinator; followers receive it over
	// the trunk and are awaited.
	t0 := time.Now()
	if err := r.scenes[0].AddNodes(in.Nodes); err != nil {
		return r, err
	}
	r.addNodes = time.Since(t0)
	for _, sc := range r.scenes[1:] {
		for deadline := time.Now().Add(30 * time.Second); sc.Len() < len(in.Nodes); {
			if time.Now().After(deadline) {
				return r, fmt.Errorf("scene replication: follower has %d of %d nodes", sc.Len(), len(in.Nodes))
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, id := range in.Walkers {
		r.scenes[0].SetMobility(id, mobility.RandomWalk(1, 5, 1, in.Region))
	}

	// Dial the population through a bounded worker pool.
	r.clients = make([]*core.Client, len(in.Nodes))
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	idx := make(chan int, 256)
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				id := radio.NodeID(i + 1)
				cfg := core.ClientConfig{ID: id, LocalClock: r.clk, OnPacket: onPacket(id)}
				t := time.Now()
				var c *core.Client
				var err error
				if w.Trunk {
					c, err = core.DialCluster(cfg, dialers)
				} else {
					cfg.Dial = dialers[0]
					c, err = core.Dial(cfg)
				}
				r.dialNs.Add(int64(time.Since(t)))
				if err != nil {
					select {
					case errc <- fmt.Errorf("dial session %d: %w", id, err):
					default:
					}
					continue
				}
				r.clients[i] = c
			}
		}()
	}
	for i := range in.Nodes {
		idx <- i
	}
	close(idx)
	wg.Wait()
	select {
	case err := <-errc:
		return r, err
	default:
	}
	return r, nil
}

// close tears the rig down in poemd's order: clients, listeners,
// servers, Serve loops.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	var wg sync.WaitGroup
	ch := make(chan *core.Client, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range ch {
				c.Close()
			}
		}()
	}
	for _, c := range r.clients {
		if c != nil {
			ch <- c
		}
	}
	close(ch)
	wg.Wait()
	for _, l := range r.liss {
		l.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	for _, d := range r.served {
		<-d
	}
}

// flowWindow builds flow f's closed-loop window over its receivers: the
// unicast destination, or the broadcaster's current neighbours as the
// scene itself reports them (re-read while the scene moves).
func (r *rig) flowWindow(m *meter, f int) *flowWindow {
	spec := r.in.Flows[f]
	if !r.w.Broadcast {
		var heard []*atomic.Uint32
		for _, d := range spec.Dsts {
			heard = append(heard, &m.recvs[d-1].heard[f])
		}
		return newFlowWindow(r.w.Window, heard, nil)
	}
	neighbours := func() []*atomic.Uint32 {
		var out []*atomic.Uint32
		for _, nb := range r.scenes[0].Neighbors(spec.Src, channel) {
			out = append(out, &m.recvs[nb.ID-1].heard[f])
		}
		return out
	}
	if !r.w.Churn {
		return newFlowWindow(r.w.Window, neighbours(), nil)
	}
	return newFlowWindow(r.w.Window, neighbours(), neighbours)
}

// stats sums the conservation counters over the cluster.
func (r *rig) stats() core.ServerStats {
	var t core.ServerStats
	for _, s := range r.servers {
		st := s.Stats()
		t.Received += st.Received
		t.Forwarded += st.Forwarded
		t.Dropped += st.Dropped
		t.NoRoute += st.NoRoute
		t.QueueDrops += st.QueueDrops
		t.StampClamped += st.StampClamped
		t.Entered += st.Entered
		t.Abandoned += st.Abandoned
		t.Clients += st.Clients
		t.Scheduled += st.Scheduled
	}
	return t
}

func (r *rig) shardStats() []core.ShardStat {
	var out []core.ShardStat
	for _, s := range r.servers {
		out = append(out, s.ShardStats()...)
	}
	return out
}

// trunksSettled reports whether every delivery shipped onto a trunk has
// been received by its peer.
func (r *rig) trunksSettled() bool {
	var remote, recv uint64
	for _, s := range r.servers {
		if cs := s.Cluster(); cs != nil {
			remote, recv = remote+cs.RemoteEntries, recv+cs.RecvEntries
		}
	}
	return remote == recv
}

func (r *rig) trunkDropped() uint64 {
	var n uint64
	for _, s := range r.servers {
		if cs := s.Cluster(); cs != nil {
			n += cs.TrunkDropped
		}
	}
	return n
}
