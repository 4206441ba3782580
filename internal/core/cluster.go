package core

// Federation: N poemd peers jointly own one scene. This file is the
// cluster routing tier layered over the sharded core — the same idea as
// ShardIndex one level up. Every VMN id maps to exactly one owning peer
// (PeerIndex); clients register with their owner (other peers redirect,
// see register), and a packet's scheduled deliveries split at ingest:
// targets owned locally take the usual per-shard push, targets owned
// remotely ride persistent trunks (transport.Trunk) to their peer as
// batched TrunkBatch frames — the coalesced-push shape of pushLocal
// stretched across machines, pooled mbuf framing included.
//
// Scene state replicates one-way from a coordinator peer, out of the
// scene's own journal (scene/journal.go): each follower is one cursor
// into it, and one loop per follower sends whatever is behind its cursor
// as TrunkScene frames — or the scene's state, first and whenever the
// cursor has fallen off the journal. The follower's scene.Replica
// applies them through the scene's ordinary mutators and drops any frame
// that does not follow what it applied. The coordinator's heartbeat says
// what it sent; a follower that lacks some of it asks, in its own
// heartbeat, to be sent again from what it applied — or sent the state,
// when it holds another journal than the coordinator's (a coordinator or
// follower restarted). Cold join, a long partition, a restart and a lost
// frame all take that one path. Heartbeats carry each follower's scene
// digest, which the coordinator compares at equal seqs. Staleness — the
// follower's emulation clock minus a record's coordinator stamp — lands
// in obs gauges and a histogram, making the scene-broadcast lag of the
// MobiEmu baseline a measured production quantity.
//
// Lock order: Server.mu before shard.mu before anything in this file;
// trunk locks are leaves and never held across calls into Server or
// scene code. The replication subscriber runs under the scene lock and
// only wakes the peer loops; a Replica's lock is taken before the
// follower's scene lock.
//
// Peers: nil (or a single entry) keeps the exact single-server path:
// routeRemote never fires, no trunks or goroutines exist, and chaos
// digests are byte-identical with the legacy configuration.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PeerSpec identifies one peer of a federated cluster.
type PeerSpec struct {
	// Addr is the peer's client listen address: trunks dial it (when
	// Dial is nil) and registration redirects quote it.
	Addr string
	// Dial, when non-nil, overrides Addr for trunk connections — the
	// in-process federations used by tests and chaos pass listener
	// dialers here.
	Dial transport.Dialer
}

// PeerIndex maps a VMN id onto one of n cluster peers. Like ShardIndex
// it is multiplicative hashing — and exported contract: clients use it
// to pick their owner before dialing — but with a different mixer
// (splitmix64's constant over an offset id), so the peer partition does
// not align with the shard partition and neither inherits the other's
// imbalance.
func PeerIndex(id radio.NodeID, n int) int {
	if n <= 1 {
		return 0
	}
	h := (uint64(id) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int((h >> 32) % uint64(n))
}

// DefaultStatusEvery is the trunk heartbeat cadence (wall-clock) when
// ServerConfig.StatusEvery is zero.
const DefaultStatusEvery = 200 * time.Millisecond

// cluster is the per-server federation state. nil on unclustered
// servers; built by NewServer when ServerConfig.Peers is set.
type cluster struct {
	srv         *Server
	id          string
	self        int
	coordinator int
	n           int
	peers       []PeerSpec
	trunks      []*transport.Trunk // indexed by peer; nil at self

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Inbound trunk connections, tracked so Close can cut them (their
	// handlers run under the server's WaitGroup like client sessions).
	connMu sync.Mutex
	conns  map[transport.Conn]struct{}

	// Replication: on the coordinator, the origin naming its journal and
	// one cursor per remote peer; on a follower, the replica of the
	// coordinator's scene and whether the next heartbeat asks for a
	// resend.
	origin      uint64
	cursors     []cursor
	replica     *scene.Replica
	resend      atomic.Bool
	lastStale   atomic.Int64 // follower: last measured staleness, ns
	peerApplied []atomic.Uint64

	health *fidelity.ClusterHealth

	mRecvEntries *obs.Counter
	mRepErrors   *obs.Counter
	mSnapshots   *obs.Counter
	hStale       *obs.Histogram
}

// cursor is one follower's place in the coordinator's journal: the next
// seq to send it, 0 until it was sent a state. Its loop advances it past
// what it wrote; the follower's resend request moves it back. diverged
// is whether the follower's digest last differed.
type cursor struct {
	next     atomic.Uint64
	wake     chan struct{}
	diverged atomic.Bool
}

func (c *cursor) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// rewind moves the cursor back to seq, never forward, and wakes its loop.
func (c *cursor) rewind(seq uint64) {
	for cur := c.next.Load(); seq < cur && !c.next.CompareAndSwap(cur, seq); cur = c.next.Load() {
	}
	c.signal()
}

// newCluster wires the federation tier onto an assembled server. Called
// by NewServer after instrument (the obs registry must exist).
func newCluster(s *Server, cfg ServerConfig) *cluster {
	cl := &cluster{
		srv:         s,
		id:          cfg.ClusterID,
		self:        cfg.Self,
		coordinator: cfg.Coordinator,
		n:           len(cfg.Peers),
		peers:       cfg.Peers,
		trunks:      make([]*transport.Trunk, len(cfg.Peers)),
		done:        make(chan struct{}),
		conns:       make(map[transport.Conn]struct{}),
		origin:      rand.Uint64() | 1, // never 0, a replica's "none"
		cursors:     make([]cursor, len(cfg.Peers)),
		replica:     scene.NewReplica(cfg.Scene),
		peerApplied: make([]atomic.Uint64, len(cfg.Peers)),
	}
	for p := range cl.cursors {
		cl.cursors[p].wake = make(chan struct{}, 1)
	}

	reg := s.obs
	// The outbound data-path terms are the trunks' own ledger, read at
	// scrape time: accepted == written + dropped + pending per trunk.
	reg.CounterFunc("poem_cluster_remote_entries_total",
		"scheduled deliveries written to remote peers over trunks",
		func() uint64 { return cl.trunkTotals().SentEntries })
	reg.CounterFunc("poem_cluster_trunk_dropped_total",
		"scheduled deliveries dropped because their peer's trunk was down or failed the write",
		func() uint64 { return cl.trunkTotals().DroppedBatch })
	reg.Gauge("poem_cluster_trunk_pending_entries",
		"scheduled deliveries handed to a trunk and not yet written or dropped",
		func() float64 { return float64(cl.trunkTotals().Pending) })
	cl.mRecvEntries = reg.Counter("poem_cluster_recv_entries_total",
		"scheduled deliveries received over inbound trunks")
	cl.mRepErrors = reg.Counter("poem_cluster_replication_errors_total",
		"scene frames refused (malformed, or not from the coordinator) and replicated records that failed to apply")
	cl.mSnapshots = reg.Counter("poem_cluster_scene_snapshots_total",
		"scene snapshots sent whole (coordinator) or restored (follower)")
	reg.Gauge("poem_cluster_scene_divergence",
		"peers whose scene digest differed from the coordinator's at the same seq (coordinator only)",
		func() float64 { return float64(cl.divergence()) })
	cl.hStale = reg.Histogram("poem_cluster_staleness_ns",
		"scene replication staleness at apply: follower clock minus coordinator event stamp")
	reg.Gauge("poem_cluster_peers", "peers in the federated cluster",
		func() float64 { return float64(cl.n) })
	reg.Gauge(obs.Labeled("poem_cluster_info", "cluster", cl.id), "always 1; the label names the cluster",
		func() float64 { return 1 })
	reg.Gauge("poem_cluster_self", "this peer's index in the cluster peer list",
		func() float64 { return float64(cl.self) })
	reg.Gauge("poem_cluster_coordinator", "the coordinator's index in the cluster peer list",
		func() float64 { return float64(cl.coordinator) })
	reg.Gauge("poem_cluster_staleness_last_ns", "last measured scene replication staleness",
		func() float64 { return float64(cl.lastStale.Load()) })
	reg.Gauge("poem_cluster_applied_seq", "scene journal seq this peer applied (the coordinator's own seq)",
		func() float64 { return float64(cl.appliedSeq()) })
	for p := range cl.peers {
		p := p
		reg.Gauge(obs.Labeled("poem_cluster_peer_applied_seq", "peer", strconv.Itoa(p)),
			"last scene mutation this peer reported applied (from trunk heartbeats)",
			func() float64 { return float64(cl.peerApplied[p].Load()) })
		reg.Gauge(obs.Labeled("poem_cluster_peer_lag_events", "peer", strconv.Itoa(p)),
			"scene mutations replicated but not yet reported applied by this peer",
			func() float64 {
				seq, applied := cl.appliedSeq(), cl.peerApplied[p].Load()
				if p == cl.self || cl.self != cl.coordinator || applied >= seq {
					return 0
				}
				return float64(seq - applied)
			})
	}
	cl.health = fidelity.NewClusterHealth(cl.n, reg)

	if cl.n > 1 {
		for p := range cl.peers {
			if p == cl.self {
				continue
			}
			dial := cl.peers[p].Dial
			if dial == nil {
				dial = transport.TCPDialer(cl.peers[p].Addr)
			}
			cl.trunks[p] = transport.NewTrunk(transport.TrunkConfig{
				Dial: dial,
				Hello: &wire.TrunkHello{Ver: wire.Version, From: uint32(cl.self),
					Coordinator: uint32(cl.coordinator), Seed: cfg.Seed, Cluster: cl.id},
				MinBackoff: cfg.TrunkMinBackoff,
				MaxBackoff: cfg.TrunkMaxBackoff,
				Name:       "peer" + strconv.Itoa(p),
			})
			cl.instrumentTrunk(reg, p)
		}
		if cl.self == cl.coordinator {
			cfg.Scene.KeepJournal()
			cfg.Scene.Subscribe(cl.replicate)
			for p := range cl.peers {
				if p == cl.self {
					continue
				}
				cl.wg.Add(1)
				go cl.repLoop(p)
			}
		}
		every := cfg.StatusEvery
		if every <= 0 {
			every = DefaultStatusEvery
		}
		cl.wg.Add(1)
		go cl.statusLoop(every)
	}
	return cl
}

// instrumentTrunk registers the outbound trunk to peer p: whether it is
// connected, its ledger (written, dropped, pending), the frames that
// carried the written entries, its dial history, and — on the
// coordinator — whether p's scene digest last differed.
func (cl *cluster) instrumentTrunk(reg *obs.Registry, p int) {
	tr, c := cl.trunks[p], &cl.cursors[p]
	name := func(family string) string { return obs.Labeled(family, "peer", strconv.Itoa(p)) }
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	reg.Gauge(name("poem_cluster_peer_trunk_up"), "1 while the trunk to this peer is connected",
		func() float64 { return flag(tr.Stats().Up) })
	reg.Gauge(name("poem_cluster_peer_trunk_pending_entries"),
		"scheduled deliveries handed to this peer's trunk and not yet written or dropped",
		func() float64 { return float64(tr.Stats().Pending) })
	reg.Gauge(name("poem_cluster_peer_digest_diverged"),
		"1 while this peer's scene digest differs from the coordinator's at the same seq (coordinator only)",
		func() float64 { return flag(c.diverged.Load()) })
	for _, f := range [...]struct {
		family, help string
		v            func(transport.TrunkStats) uint64
	}{
		{"poem_cluster_peer_trunk_entries_total", "scheduled deliveries written to this peer's trunk",
			func(ts transport.TrunkStats) uint64 { return ts.SentEntries }},
		{"poem_cluster_peer_trunk_frames_total", "frames written to this peer's trunk, heartbeats and scene frames included",
			func(ts transport.TrunkStats) uint64 { return ts.SentMsgs }},
		{"poem_cluster_peer_trunk_dropped_total", "scheduled deliveries dropped because this peer's trunk was down or failed the write",
			func(ts transport.TrunkStats) uint64 { return ts.DroppedBatch }},
		{"poem_cluster_peer_trunk_reconnects_total", "successful (re)connections of the trunk to this peer",
			func(ts transport.TrunkStats) uint64 { return ts.Reconnects }},
		{"poem_cluster_peer_trunk_dial_failures_total", "failed dials of the trunk to this peer",
			func(ts transport.TrunkStats) uint64 { return ts.DialFailures }},
	} {
		reg.CounterFunc(name(f.family), f.help, func() uint64 { return f.v(tr.Stats()) })
	}
}

// validateCluster checks the federation fields of a ServerConfig.
func validateCluster(cfg ServerConfig) error {
	if len(cfg.Peers) == 0 {
		return nil
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return fmt.Errorf("core: ServerConfig.Self %d outside Peers[0:%d]", cfg.Self, len(cfg.Peers))
	}
	if cfg.Coordinator < 0 || cfg.Coordinator >= len(cfg.Peers) {
		return fmt.Errorf("core: ServerConfig.Coordinator %d outside Peers[0:%d]", cfg.Coordinator, len(cfg.Peers))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Outbound: remote routing on the ingest path

// routeRemote splits one packet's scheduled deliveries by owning peer:
// remote targets are handed to their peer's trunk as one TrunkBatch per
// peer (buffer references travel with the entries, and the trunk
// consumes them whatever becomes of them), local targets compact to the
// front of targets and are returned for the usual per-shard push. The
// trunk write is deferred: an entry carries its absolute Due, so the
// receiving peer's scanner write is the emulated departure, and time
// spent queued before the trunk write cannot distort emulated time. The
// trunk counts every entry written, dropped or pending; Entered counts
// at the peer where a delivery enters a schedule, so per-server
// conservation ledgers stay exact and the cluster-wide ledger is their
// sum. Runs on the session's reader goroutine; grouping scratch lives on
// the session.
func (cl *cluster) routeRemote(sess *session, pkt wire.Packet, targets []sched.Target) []sched.Target {
	n := len(targets)
	idxs := sess.peerIdx[:0]
	remote := 0
	for i := range targets {
		p := int32(PeerIndex(targets[i].To, cl.n))
		if int(p) != cl.self {
			remote++
		}
		idxs = append(idxs, p)
	}
	sess.peerIdx = idxs
	if remote == 0 {
		return targets
	}
	for i := 0; i < n; i++ {
		p := idxs[i]
		if p < 0 || int(p) == cl.self {
			continue
		}
		tb := wire.AcquireTrunkBatch()
		for j := i; j < n; j++ {
			if idxs[j] != p {
				continue
			}
			tb.Entries = append(tb.Entries, wire.TrunkEntry{Due: targets[j].Due, To: targets[j].To, Pkt: pkt})
			idxs[j] = -1
		}
		cl.trunks[p].SendDeferred(tb) // a drop is counted by the trunk
	}
	w := 0
	for i := 0; i < n; i++ {
		if int(idxs[i]) == cl.self {
			targets[w] = targets[i]
			w++
		}
	}
	return targets[:w]
}

// ---------------------------------------------------------------------------
// Inbound: trunk ingress

func (cl *cluster) addConn(c transport.Conn) {
	cl.connMu.Lock()
	cl.conns[c] = struct{}{}
	cl.connMu.Unlock()
}

func (cl *cluster) removeConn(c transport.Conn) {
	cl.connMu.Lock()
	delete(cl.conns, c)
	cl.connMu.Unlock()
}

// serveTrunk runs one inbound trunk connection after its TrunkHello:
// batched remote deliveries land in the local shards' schedules, scene
// frames go to the replica, heartbeats update the peer roll-up. A hello
// from another cluster or version, from this peer's own index, from a
// peer that takes another peer for the coordinator, or from one whose
// link-model seed differs (it would drop other packets of the same flow)
// is refused with a Bye naming both sides. Runs on the connection's
// handler goroutine (under Server.wg).
func (cl *cluster) serveTrunk(conn transport.Conn, hello *wire.TrunkHello) {
	from := int(hello.From)
	seed := cl.srv.cfg.Seed
	if hello.Ver != wire.Version || hello.Cluster != cl.id || from >= cl.n || from == cl.self ||
		int(hello.Coordinator) != cl.coordinator || hello.Seed != seed {
		conn.Send(&wire.Bye{Reason: fmt.Sprintf("core: trunk rejected: hello from cluster %q version %d peer %d "+
			"coordinator %d; this is cluster %q version %d peer %d coordinator %d; the hello's seed is %d, this peer's %d",
			hello.Cluster, hello.Ver, hello.From, hello.Coordinator, cl.id, wire.Version, cl.self, cl.coordinator,
			hello.Seed, seed)})
		return
	}
	cl.addConn(conn)
	defer cl.removeConn(conn)
	var sc pushScratch // per-connection scratch, same confinement as a session's
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		switch v := m.(type) {
		case *wire.TrunkBatch:
			cl.ingestTrunkBatch(v, &sc)
		case *wire.TrunkScene:
			cl.applyScene(from, v)
		case *wire.TrunkStatus:
			cl.noteStatus(from, v)
		case *wire.Bye:
			return
		default:
			wire.ReleaseMsg(m) // forward compatibility, like the client loop
		}
	}
}

// ingestTrunkBatch schedules one inbound batch. Consecutive entries of
// one packet on one buffer — a remote broadcast's receivers on this peer
// — are one fan: their buffer references transfer from the wire message
// into the schedule, their due times are floored at the local clock
// (they were computed against the sender's), and they enter the local
// shards by the same push as a client packet, which counts them Entered
// here — the receiving side of the cluster conservation ledger.
func (cl *cluster) ingestTrunkBatch(tb *wire.TrunkBatch, sc *pushScratch) {
	s := cl.srv
	now := s.cfg.Clock.Now()
	entries := tb.Entries
	for i := 0; i < len(entries); {
		pkt := entries[i].Pkt
		targets := sc.targets[:0]
		for ; i < len(entries) && sameFan(&entries[i].Pkt, &pkt); i++ {
			targets = append(targets, sched.Target{To: entries[i].To, Due: entries[i].Due})
			entries[i].Pkt = wire.Packet{} // reference moved into the fan
		}
		sc.targets = targets
		floorDues(targets, 0, now)
		s.pushLocal(sc, pkt, targets)
	}
	// Counted once scheduled, as a client packet's Received is: a settled
	// Σ RemoteEntries == Σ RecvEntries then means no entry is still on
	// its way into a schedule.
	cl.mRecvEntries.Add(uint64(len(entries)))
	tb.Entries = entries[:0]
	wire.ReleaseTrunkBatch(tb)
}

// sameFan reports whether trunk entries carrying a and b can share one
// fan: the same packet (the sampling key, its addressing and payload) on
// the same buffer, so the fan's buffer references all sit on the buffer
// it carries.
func sameFan(a, b *wire.Packet) bool {
	return samePacket(a, b) && a.Buf == b.Buf && a.Dst == b.Dst && a.Channel == b.Channel &&
		a.Flow == b.Flow && bytes.Equal(a.Payload, b.Payload)
}

// ---------------------------------------------------------------------------
// Scene replication

// replicate is the coordinator's scene subscriber. It runs under the
// scene lock, which has journaled the event already: it only wakes the
// peer loops.
func (cl *cluster) replicate(scene.Event) {
	for p := range cl.cursors {
		cl.cursors[p].signal()
	}
}

// sceneFrameMax bounds a TrunkScene's scene bytes so that the frame
// stays within the trunk's frame bound.
const sceneFrameMax = transport.TrunkFrameMax - 64

// repLoop is peer p's sender. It sends everything behind p's cursor,
// then waits for the next event or resend request — or, when the trunk
// failed, for the trunk's own backoff to end.
func (cl *cluster) repLoop(p int) {
	defer cl.wg.Done()
	c, tr := &cl.cursors[p], cl.trunks[p]
	for {
		err := cl.sendScene(c, tr)
		if errors.Is(err, transport.ErrClosed) {
			return
		}
		wake, retry := c.wake, (<-chan time.Time)(nil)
		if err != nil {
			wake, retry = nil, time.NewTimer(time.Until(tr.RetryAt())).C
		}
		select {
		case <-cl.done:
			return
		case <-wake:
		case <-retry:
		}
	}
}

// sendScene sends c everything behind it, one frame per write: whole
// journal records or, when c was sent nothing yet or has fallen off the
// journal, the scene's state at the journal's seq, in parts split at
// node boundaries. The cursor moves past each frame written unless a
// resend request moved it meanwhile.
func (cl *cluster) sendScene(c *cursor, tr *transport.Trunk) error {
	sc := cl.srv.cfg.Scene
	for {
		from := c.next.Load()
		recs, n, ok := sc.ReadJournal(from, sceneFrameMax)
		if !ok {
			seq, parts := sc.EncodeState(sceneFrameMax)
			for _, part := range parts {
				if err := tr.Send(&wire.TrunkScene{Origin: cl.origin, Seq: seq, Snapshot: true, Data: part}); err != nil {
					return err
				}
			}
			cl.mSnapshots.Inc()
			c.next.CompareAndSwap(from, seq+1)
			continue
		}
		if n == 0 {
			return nil
		}
		if err := tr.Send(&wire.TrunkScene{Origin: cl.origin, Seq: from, Data: recs}); err != nil {
			return err
		}
		c.next.CompareAndSwap(from, from+uint64(n))
	}
}

// applyScene is the follower side. Only the coordinator's trunk carries
// scene frames; the replica drops a frame that does not follow what it
// applied, which the coordinator's next heartbeat reveals (noteStatus).
// Staleness is this peer's clock minus the last record's coordinator
// stamp (both clocks track the same emulation timebase).
func (cl *cluster) applyScene(from int, ts *wire.TrunkScene) {
	if from != cl.coordinator {
		cl.mRepErrors.Inc()
		return
	}
	at, restored, err := cl.replica.Apply(ts.Origin, ts.Seq, ts.Snapshot, ts.Data)
	switch {
	case errors.Is(err, scene.ErrOutOfSequence):
		return
	case err != nil:
		cl.mRepErrors.Inc()
	}
	if restored {
		cl.mSnapshots.Inc()
	}
	if ts.Snapshot {
		return
	}
	stale := max(int64(cl.srv.cfg.Clock.Now()-at), 0)
	cl.lastStale.Store(stale)
	cl.hStale.Observe(time.Duration(stale))
}

// appliedSeq is this peer's replication point: the coordinator's journal
// seq, or the seq a follower's replica applied.
func (cl *cluster) appliedSeq() uint64 {
	if cl.self == cl.coordinator {
		_, last := cl.srv.cfg.Scene.JournalSpan()
		return last
	}
	_, applied := cl.replica.Applied()
	return applied
}

// divergence counts the peers whose digest last differed.
func (cl *cluster) divergence() (n int) {
	for p := range cl.cursors {
		if cl.cursors[p].diverged.Load() {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Heartbeats

// statusLoop broadcasts this peer's health and replication point over
// every trunk at a fixed wall cadence, and refreshes its own slot in the
// cluster roll-up. A follower's heartbeat carries its scene digest and,
// to the coordinator, its resend request; the coordinator's to a peer
// carries what it sent that peer.
func (cl *cluster) statusLoop(every time.Duration) {
	defer cl.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-cl.done:
			return
		case <-t.C:
		}
		st := cl.srv.fid.State()
		cl.health.Set(cl.self, st)
		origin, applied, digest := cl.origin, cl.appliedSeq(), uint64(0)
		if cl.self != cl.coordinator {
			origin, applied, digest = cl.replica.State()
		}
		resend := cl.resend.Swap(false)
		// Own row of the per-peer applied gauge: every peer publishes its
		// own value too, so the family is complete on any one registry.
		cl.peerApplied[cl.self].Store(applied)
		now := cl.srv.cfg.Clock.Now()
		for p, tr := range cl.trunks {
			if tr == nil {
				continue
			}
			hb := &wire.TrunkStatus{From: uint32(cl.self), Health: uint8(st), Resend: resend && p == cl.coordinator,
				Origin: origin, AppliedSeq: applied, Digest: digest, Now: now}
			if cl.self == cl.coordinator {
				sent := cl.cursors[p].next.Load()
				if hb.AppliedSeq = max(sent, 1) - 1; sent == 0 {
					hb.Origin = 0 // nothing sent yet
				}
			}
			if tr.Send(hb) != nil && hb.Resend {
				cl.resend.Store(true)
			}
		}
	}
}

// noteStatus records peer p's heartbeat. The coordinator moves p's
// cursor back when p asks for a resend — to the state, when p holds
// another journal — and judges p's digest when p applied exactly the
// coordinator's seq. A follower that hears the coordinator sent it more
// than it applied, or sent it another journal, lost frames with a
// connection or was restarted, and asks for a resend.
func (cl *cluster) noteStatus(p int, st *wire.TrunkStatus) {
	cl.health.Set(p, fidelity.State(st.Health))
	cl.peerApplied[p].Store(st.AppliedSeq)
	switch {
	case cl.self == cl.coordinator:
		c, ours := &cl.cursors[p], st.Origin == cl.origin
		if st.Resend && ours {
			c.rewind(st.AppliedSeq + 1)
		} else if st.Resend {
			c.rewind(0)
		}
		if !ours || cl.appliedSeq() != st.AppliedSeq {
			return // hash the scene only when the verdict can be had
		}
		if seq, digest := cl.srv.cfg.Scene.Digest(); seq == st.AppliedSeq {
			c.diverged.Store(digest != st.Digest)
		}
	case p == cl.coordinator:
		origin, applied := cl.replica.Applied()
		if st.Origin != 0 && (st.Origin != origin || st.AppliedSeq > applied) {
			cl.resend.Store(true)
		}
	}
}

// ---------------------------------------------------------------------------
// Lifecycle and stats

// close stops the outbound machinery: replication and status loops,
// then every trunk. Inbound connections are cut separately
// (closeInbound) because their handlers drain under Server.wg.
func (cl *cluster) close() {
	cl.closeOnce.Do(func() {
		close(cl.done)
		for _, tr := range cl.trunks {
			if tr != nil {
				tr.Close()
			}
		}
		cl.wg.Wait()
	})
}

// closeInbound cuts every inbound trunk connection, unblocking their
// handler goroutines.
func (cl *cluster) closeInbound() {
	cl.connMu.Lock()
	conns := make([]transport.Conn, 0, len(cl.conns))
	for c := range cl.conns {
		conns = append(conns, c)
	}
	cl.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// PeerStat is one cluster peer as seen from this server; ClusterStat
// lists them by peer index.
type PeerStat struct {
	// AppliedSeq is the scene journal seq the peer last reported applied
	// (own value for Self; the coordinator reports what it wrote this
	// peer). Diverged: the peer's digest differed from the coordinator's
	// at the same seq (coordinator only).
	AppliedSeq uint64
	Diverged   bool
	// The ledger of the outbound trunk to this peer (zero for this peer
	// itself): entries written, dropped, and still pending.
	TrunkUp        bool
	SentEntries    uint64
	DroppedEntries uint64
	Pending        uint64
}

// ClusterStat is a snapshot of the federation tier.
type ClusterStat struct {
	Peers int
	// RepSeq is the coordinator's journal seq (zero elsewhere);
	// AppliedSeq this peer's replication point. Snapshots counts scene
	// snapshots sent whole (coordinator) or restored (follower);
	// Divergence the peers whose digest differed (coordinator only).
	RepSeq     uint64
	AppliedSeq uint64
	Snapshots  uint64
	Divergence int
	// RemoteEntries/TrunkDropped/RecvEntries are the cluster data-path
	// counters, summed over this peer's trunks and inbound connections.
	// RemoteEntries is every delivery handed to a live trunk and not
	// dropped: written (SentEntries) or still pending, of which
	// PendingEntries is the second term. A pending entry is either
	// written later or moves to TrunkDropped, the deliveries dropped on
	// dead trunks or failed writes; so once every ingest has returned,
	// Σ RemoteEntries == Σ RecvEntries over the cluster is exact at a
	// settled point. RecvEntries counts deliveries received from peers.
	// RepErrors counts scene frames refused and replicated records that
	// failed to apply.
	RemoteEntries  uint64
	PendingEntries uint64
	TrunkDropped   uint64
	RecvEntries    uint64
	RepErrors      uint64
	// StalenessNs is the last measured scene replication staleness.
	StalenessNs int64
	PeerStats   []PeerStat
}

// trunkTotals sums the outbound trunks' ledgers.
func (cl *cluster) trunkTotals() (sum transport.TrunkStats) {
	for _, tr := range cl.trunks {
		if tr == nil {
			continue
		}
		ts := tr.Stats()
		sum.SentEntries += ts.SentEntries
		sum.DroppedBatch += ts.DroppedBatch
		sum.Pending += ts.Pending
	}
	return sum
}

// Cluster snapshots the federation tier, or returns nil on an
// unclustered server.
func (s *Server) Cluster() *ClusterStat {
	cl := s.cluster
	if cl == nil {
		return nil
	}
	applied := cl.appliedSeq()
	st := &ClusterStat{
		Peers:       cl.n,
		AppliedSeq:  applied,
		Snapshots:   cl.mSnapshots.Load(),
		Divergence:  cl.divergence(),
		RecvEntries: cl.mRecvEntries.Load(),
		RepErrors:   cl.mRepErrors.Load(),
		StalenessNs: cl.lastStale.Load(),
	}
	if cl.self == cl.coordinator {
		st.RepSeq = applied
	}
	for p := range cl.peers {
		ps := PeerStat{
			AppliedSeq: cl.peerApplied[p].Load(),
			Diverged:   cl.cursors[p].diverged.Load(),
		}
		if p == cl.self {
			ps.AppliedSeq = applied
		}
		if tr := cl.trunks[p]; tr != nil {
			ts := tr.Stats()
			ps.TrunkUp = ts.Up
			ps.SentEntries = ts.SentEntries
			ps.DroppedEntries = ts.DroppedBatch
			ps.Pending = ts.Pending
			st.RemoteEntries += ts.SentEntries + ts.Pending
			st.PendingEntries += ts.Pending
			st.TrunkDropped += ts.DroppedBatch
		}
		st.PeerStats = append(st.PeerStats, ps)
	}
	return st
}

// ---------------------------------------------------------------------------
// Cluster-aware dialing

// DialCluster connects a client to the cluster peer owning cfg.ID:
// peers[PeerIndex(cfg.ID, len(peers))] is dialed directly, and if that
// peer disagrees about ownership (mid-reconfiguration) one redirect is
// followed. peers must list the dialers in cluster peer order.
func DialCluster(cfg ClientConfig, peers []transport.Dialer) (*Client, error) {
	if len(peers) == 0 {
		return nil, errors.New("core: DialCluster needs at least one peer")
	}
	owner := PeerIndex(cfg.ID, len(peers))
	cfg.Dial = peers[owner]
	c, err := Dial(cfg)
	if err == nil {
		return c, nil
	}
	if idx, ok := parseRedirect(err.Error()); ok && idx != owner && idx >= 0 && idx < len(peers) {
		cfg.Dial = peers[idx]
		return Dial(cfg)
	}
	return nil, err
}

// parseRedirect extracts the owning peer index from a registration
// redirect ("... belongs to peer N ...").
func parseRedirect(s string) (int, bool) {
	const marker = "belongs to peer "
	i := 0
	for ; i+len(marker) <= len(s); i++ {
		if s[i:i+len(marker)] == marker {
			break
		}
	}
	if i+len(marker) > len(s) {
		return 0, false
	}
	rest := s[i+len(marker):]
	n, digits := 0, 0
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		n = n*10 + int(rest[digits]-'0')
		digits++
	}
	if digits == 0 {
		return 0, false
	}
	return n, true
}
