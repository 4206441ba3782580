package chaos

// Federated chaos: the multi-server analogue of Run, as a script over a
// world of N servers (in-proc trunks, peer 0 coordinating). Every VMN's
// client dials its owning peer, and the script drives seeded
// cross-server traffic, coordinator scene churn, and a full partition
// of one peer, settling the world — every steady-state invariant,
// cluster-wide, trunk transit included — after each traffic phase. On
// top of that it asserts scene replication recovery end to end:
// mutations issued during the partition reach the healed peer in order,
// the follower's applied sequence catches the coordinator's, and the
// staleness/health gauges are live on the obs registry.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// FedConfig parameterizes one federated chaos scenario.
type FedConfig struct {
	// Seed steers burst pairing and node placement.
	Seed int64
	// Peers is the cluster size; minimum (and default) 2.
	Peers int
	// ClientsPerPeer is how many VMNs each peer owns; default 2. Ids are
	// chosen by scanning PeerIndex, so ownership is guaranteed.
	ClientsPerPeer int
	// Bursts is the number of traffic bursts per phase; default 12.
	Bursts int
	// Scale compresses time (server clock = Scale × wall); default 200.
	Scale float64
}

func (c FedConfig) normalize() FedConfig {
	if c.Peers < 2 {
		c.Peers = 2
	}
	if c.ClientsPerPeer <= 0 {
		c.ClientsPerPeer = 2
	}
	if c.Bursts <= 0 {
		c.Bursts = 12
	}
	if c.Scale <= 0 {
		c.Scale = 200
	}
	return c
}

// FedReport is the outcome of one federated chaos run.
type FedReport struct {
	Outcome
	Peers        int
	Delivered    uint64 // packets client sinks received, all peers
	CrossPeer    uint64 // deliveries that crossed a trunk
	TrunkDropped uint64 // deliveries dropped on down trunks (partition phase)
}

// Failure renders a failing run for the test log.
func (r FedReport) Failure() string {
	return r.failure(fmt.Sprintf("federated chaos (%d peers)", r.Peers), "TestChaosFederation")
}

// fedRunner executes one federated scenario over a world of cfg.Peers
// servers.
type fedRunner struct {
	*world
	cfg FedConfig
	rng *rand.Rand
}

// RunFederated generates and executes one federated scenario.
func RunFederated(cfg FedConfig) (rep FedReport) {
	cfg = cfg.normalize()
	rep = FedReport{Outcome: Outcome{Seed: cfg.Seed}, Peers: cfg.Peers}
	w, err := newWorld(cfg.Seed, vclock.NewSystem(cfg.Scale), cfg.Peers, 256, core.ServerConfig{
		SendQueueDepth: 1024, ObsSampleEvery: 4, ClusterID: "chaos-fed",
		StatusEvery:     2 * time.Millisecond,
		TrunkMinBackoff: 500 * time.Microsecond,
		TrunkMaxBackoff: 4 * time.Millisecond,
	})
	if err != nil {
		rep.Violations = []string{fmt.Sprintf("setup: %v", err)}
		return rep
	}
	defer func() { rep.Outcome = w.close() }()
	r := &fedRunner{world: w, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if err := r.setup(); err != nil {
		r.violationf("setup: %v", err)
		return rep
	}
	r.run()
	rep.Delivered = r.sunk()
	t := r.trunks()
	rep.CrossPeer, rep.TrunkDropped = t.RecvEntries, t.TrunkDropped
	return rep
}

func (r *fedRunner) setup() error {
	n := r.cfg.Peers
	if err := r.setCleanModel(1, time.Millisecond); err != nil {
		return err
	}
	// ClientsPerPeer VMNs per peer, ids chosen by ownership scan, placed
	// within radio range of everyone, all on channel 1. Nodes enter the
	// scene only through the coordinator — replication must populate the
	// followers before their clients can register.
	var ids []radio.NodeID
	next := radio.NodeID(1)
	for p := 0; p < n; p++ {
		for k := 0; k < r.cfg.ClientsPerPeer; k++ {
			for core.PeerIndex(next, n) != p {
				next++
			}
			pos := geom.V(20+r.rng.Float64()*160, 20+r.rng.Float64()*160)
			if err := r.peers[0].sc.AddNode(next, pos, []radio.Radio{{Channel: 1, Range: 400}}); err != nil {
				return err
			}
			ids = append(ids, next)
			next++
		}
	}
	if err := r.waitReplicated(); err != nil {
		return err
	}
	for _, id := range ids {
		if err := r.dial(id, core.ClientConfig{}); err != nil {
			return err
		}
	}
	return nil
}

// burst sends count unicasts src→dst (flow names the phase).
func (r *fedRunner) burst(src, dst *client, flow uint16, count int) {
	payload := []byte("fed-chaos-payload-64-bytes------fed-chaos-payload-64-bytes------")
	for i := 0; i < count; i++ {
		if err := src.current().c.SendTo(dst.id, 1, flow, payload); err != nil {
			r.violationf("send n%d→n%d: %v", src.id, dst.id, err)
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// trafficRound drives Bursts random unicasts, biased so every round has
// guaranteed cross-peer pairs (client k talks to client k+1, and the
// client list interleaves peers).
func (r *fedRunner) trafficRound(flow uint16) {
	nc := len(r.clients)
	for b := 0; b < r.cfg.Bursts; b++ {
		src := r.clients[r.rng.Intn(nc)]
		dst := r.clients[(r.rng.Intn(nc-1)+1+int(src.id))%nc]
		if dst == src {
			dst = r.clients[(int(src.id)+1)%nc]
		}
		r.burst(src, dst, flow, 4+r.rng.Intn(5))
	}
}

// coordRep reads the coordinator's replication high-water mark.
func (r *fedRunner) coordRep() uint64 { return r.peers[0].srv.Cluster().RepSeq }

// waitApplied waits for every follower to apply the coordinator's full
// mutation stream.
func (r *fedRunner) waitApplied(where string) {
	rep := r.coordRep()
	if !pollUntil(5*time.Second, func() bool {
		for p := 1; p < r.cfg.Peers; p++ {
			if r.peers[p].srv.Cluster().AppliedSeq < rep {
				return false
			}
		}
		return true
	}) {
		for p := 1; p < r.cfg.Peers; p++ {
			if got := r.peers[p].srv.Cluster().AppliedSeq; got < rep {
				r.violationf("%s: replication: peer %d applied %d < coordinator rep-seq %d",
					where, p, got, rep)
			}
		}
	}
}

// checkPositions verifies every follower scene agrees with the
// coordinator on every node's position — the end-to-end proof that the
// mutation stream arrived complete and in order.
func (r *fedRunner) checkPositions(where string) {
	mismatch := func() string {
		for _, cl := range r.clients {
			want, _ := r.peers[0].sc.Node(cl.id)
			for p := 1; p < r.cfg.Peers; p++ {
				got, found := r.peers[p].sc.Node(cl.id)
				if !found {
					return fmt.Sprintf("peer %d missing n%d", p, cl.id)
				}
				if got.Pos != want.Pos {
					return fmt.Sprintf("peer %d has n%d at %v, coordinator says %v", p, cl.id, got.Pos, want.Pos)
				}
			}
		}
		return ""
	}
	if !pollUntil(5*time.Second, func() bool { return mismatch() == "" }) {
		r.violationf("%s: scene: %s", where, mismatch())
	}
}

func (r *fedRunner) run() {
	n := r.cfg.Peers
	victim := n - 1

	// Phase A: clean cross-server traffic. Some of it must actually have
	// crossed a trunk, and nothing may have been dropped.
	r.trafficRound(1)
	r.settle("phase A")
	t := r.trunks()
	if t.RemoteEntries == 0 {
		r.violationf("phase A: no traffic crossed a trunk (remote-entries = 0)")
	}
	if t.TrunkDropped != 0 {
		r.violationf("phase A: %d entries dropped with all trunks up", t.TrunkDropped)
	}

	// Phase B: coordinator scene churn replicates everywhere, and the
	// staleness/health instruments are live on every follower registry.
	for _, cl := range r.clients {
		r.peers[0].sc.MoveNode(cl.id, geom.V(30+r.rng.Float64()*140, 30+r.rng.Float64()*140))
	}
	r.peers[0].sc.SetRange(r.clients[0].id, 1, 390)
	r.waitApplied("phase B")
	r.checkPositions("phase B")
	for p := 1; p < n; p++ {
		cs := r.peers[p].srv.Cluster()
		if cs.StalenessNs < 0 {
			r.violationf("phase B: peer %d negative staleness %d", p, cs.StalenessNs)
		}
		var buf bytes.Buffer
		r.peers[p].reg.WritePrometheus(&buf)
		for _, name := range []string{"poem_cluster_staleness_last_ns", "poem_cluster_peer_health", "poem_cluster_applied_seq"} {
			if !strings.Contains(buf.String(), name) {
				r.violationf("phase B: peer %d registry missing %s", p, name)
			}
		}
	}

	// Phase C: fully partition the victim peer (both trunk directions cut;
	// its clients stay attached). Traffic to and from its nodes dies on
	// the trunks — ledger-neutrally — while the rest of the cluster keeps
	// delivering, and coordinator mutations for it queue behind the
	// partition.
	for p := 0; p < n; p++ {
		if p != victim {
			r.peers[p].gates[victim].cut()
			r.peers[victim].gates[p].cut()
		}
	}
	droppedBefore := r.trunks().TrunkDropped
	r.trafficRound(2)
	for _, cl := range r.clients {
		r.peers[0].sc.MoveNode(cl.id, geom.V(40+r.rng.Float64()*120, 40+r.rng.Float64()*120))
	}
	r.settle("phase C")
	if got := r.trunks().TrunkDropped; got == droppedBefore {
		r.violationf("phase C: partition dropped nothing (trunk-dropped still %d)", got)
	}

	// Phase D: heal. The per-peer replication loop retries its queue head
	// until the trunk redials, so the victim catches up in order; traffic
	// flows cross-server again; heartbeats tell the coordinator the
	// victim's applied sequence recovered.
	for p := 0; p < n; p++ {
		if p != victim {
			r.peers[p].gates[victim].heal()
			r.peers[victim].gates[p].heal()
		}
	}
	r.waitApplied("phase D")
	r.checkPositions("phase D")
	r.trafficRound(3)
	r.settle("phase D")
	rep := r.coordRep()
	if !pollUntil(5*time.Second, func() bool {
		return r.peers[0].srv.Cluster().PeerStats[victim].AppliedSeq >= rep
	}) {
		r.violationf("phase D: coordinator never heard peer %d catch up (applied %d < rep-seq %d)",
			victim, r.peers[0].srv.Cluster().PeerStats[victim].AppliedSeq, rep)
	}
	if errs := r.trunks().RepErrors; errs != 0 {
		r.violationf("run: %d scene replication apply errors", errs)
	}
}
