package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// fedRig is an in-process federation: n servers sharing one emulation
// timebase, trunked over in-proc listeners, peer 0 coordinating. Peers
// dial each other through the rig, so a restarted peer is reachable at
// its new listener.
type fedRig struct {
	t       *testing.T
	clk     vclock.WaitClock
	peers   []PeerSpec
	mutate  func(i int, cfg *ServerConfig)
	scenes  []*scene.Scene
	servers []*Server
	dialers []transport.Dialer

	mu   sync.Mutex
	liss []*transport.InprocListener
}

func newFedRig(t *testing.T, n int, mutate func(i int, cfg *ServerConfig)) *fedRig {
	t.Helper()
	r := &fedRig{t: t, clk: vclock.NewSystem(50), mutate: mutate,
		scenes: make([]*scene.Scene, n), servers: make([]*Server, n)}
	for i := 0; i < n; i++ {
		i := i
		dial := func() (transport.Conn, error) { return r.listener(i).Dial() }
		r.liss = append(r.liss, transport.NewInprocListener())
		r.dialers = append(r.dialers, dial)
		r.peers = append(r.peers, PeerSpec{Addr: fmt.Sprintf("peer%d", i), Dial: dial})
	}
	for i := 0; i < n; i++ {
		r.start(i)
	}
	return r
}

func (r *fedRig) listener(i int) *transport.InprocListener {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liss[i]
}

// start builds and serves peer i with an empty scene.
func (r *fedRig) start(i int) {
	r.t.Helper()
	sc := scene.New(radio.NewIndexed(250), r.clk, 1)
	cfg := ServerConfig{
		Clock: r.clk, Scene: sc, Seed: 7, Shards: *flagShards,
		Peers: append([]PeerSpec(nil), r.peers...), Self: i, ClusterID: "fed-test",
		StatusEvery:     2 * time.Millisecond,
		TrunkMinBackoff: time.Millisecond,
		TrunkMaxBackoff: 8 * time.Millisecond,
	}
	if r.mutate != nil {
		r.mutate(i, &cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.scenes[i], r.servers[i] = sc, srv
	lis, done := r.listener(i), make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	r.t.Cleanup(func() {
		lis.Close()
		srv.Close()
		<-done
	})
}

// restart replaces peer i with a fresh server holding an empty scene, on
// a new listener — a poemd killed and started again.
func (r *fedRig) restart(i int) {
	r.mu.Lock()
	lis := r.liss[i]
	r.liss[i] = transport.NewInprocListener()
	r.mu.Unlock()
	lis.Close()
	r.servers[i].Close()
	r.start(i)
}

// coord is the coordinator's scene — the authoritative one mutations go
// through.
func (r *fedRig) coord() *scene.Scene { return r.scenes[0] }

// client attaches a client to the peer owning id via DialCluster.
func (r *fedRig) client(id radio.NodeID, sk *sink) *Client {
	r.t.Helper()
	cfg := ClientConfig{ID: id, LocalClock: r.clk}
	if sk != nil {
		cfg.OnPacket = sk.on
	}
	c, err := DialCluster(cfg, r.dialers)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(c.Close)
	return c
}

func fedWaitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// ownedID returns the smallest VMN id ≥ from owned by peer in an
// n-peer cluster.
func ownedID(t *testing.T, peer, n int, from radio.NodeID) radio.NodeID {
	t.Helper()
	for id := from; id < from+10_000; id++ {
		if PeerIndex(id, n) == peer {
			return id
		}
	}
	t.Fatalf("no id owned by peer %d/%d near %v", peer, n, from)
	return 0
}

func TestPeerIndex(t *testing.T) {
	for _, n := range []int{0, 1} {
		for id := radio.NodeID(0); id < 100; id++ {
			if got := PeerIndex(id, n); got != 0 {
				t.Fatalf("PeerIndex(%v, %d) = %d, want 0", id, n, got)
			}
		}
	}
	// Every peer of a small cluster must own a reasonable share.
	for _, n := range []int{2, 3, 5} {
		counts := make([]int, n)
		for id := radio.NodeID(1); id <= 1000; id++ {
			counts[PeerIndex(id, n)]++
		}
		for p, c := range counts {
			if c < 1000/(2*n) {
				t.Errorf("n=%d: peer %d owns only %d/1000 ids", n, p, c)
			}
		}
	}
	// Stability: the exported contract clients rely on.
	if PeerIndex(42, 4) != PeerIndex(42, 4) {
		t.Fatal("PeerIndex not deterministic")
	}
}

// TestFederationSceneReplication: mutations on the coordinator's scene
// appear on every follower, with the replication point and staleness
// observable through Cluster().
func TestFederationSceneReplication(t *testing.T) {
	r := newFedRig(t, 2, nil)
	a := ownedID(t, 0, 2, 1)
	if err := r.coord().AddNode(a, geom.V(10, 20), oneRadio(1, 200)); err != nil {
		t.Fatal(err)
	}
	fedWaitFor(t, func() bool { return r.scenes[1].HasNode(a) }, "node replicated")

	r.coord().MoveNode(a, geom.V(30, 40))
	fedWaitFor(t, func() bool {
		n, ok := r.scenes[1].Node(a)
		return ok && n.Pos == geom.V(30, 40)
	}, "move replicated")

	r.coord().SetRadios(a, oneRadio(2, 150))
	fedWaitFor(t, func() bool {
		n, ok := r.scenes[1].Node(a)
		return ok && len(n.Radios) == 1 && n.Radios[0].Channel == 2
	}, "radios replicated")

	r.coord().SetPaused(true)
	fedWaitFor(t, func() bool { return r.scenes[1].Paused() }, "pause replicated")
	r.coord().SetPaused(false)
	fedWaitFor(t, func() bool { return !r.scenes[1].Paused() }, "unpause replicated")

	r.coord().RemoveNode(a)
	fedWaitFor(t, func() bool { return !r.scenes[1].HasNode(a) }, "removal replicated")

	cs0, cs1 := r.servers[0].Cluster(), r.servers[1].Cluster()
	if cs0 == nil || cs1 == nil {
		t.Fatal("Cluster() returned nil on a federated server")
	}
	if cs0.RepSeq < 6 {
		t.Errorf("coordinator RepSeq = %d, want >= 6", cs0.RepSeq)
	}
	fedWaitFor(t, func() bool {
		return r.servers[1].Cluster().AppliedSeq == r.servers[0].Cluster().RepSeq
	}, "follower caught up")
	if cs1 = r.servers[1].Cluster(); cs1.StalenessNs < 0 {
		t.Errorf("negative staleness %d", cs1.StalenessNs)
	}
	if cs1.RepErrors != 0 {
		t.Errorf("follower apply errors: %d", cs1.RepErrors)
	}
	// Heartbeats eventually tell the coordinator how far peer 1 got.
	fedWaitFor(t, func() bool {
		ps := r.servers[0].Cluster().PeerStats[1]
		return ps.AppliedSeq == cs0.RepSeq
	}, "coordinator saw follower's applied seq")
}

// TestFederationCrossServerDelivery: a packet ingested on the peer
// owning the sender reaches a destination owned by the other peer over
// the trunk, and the cluster conservation counters agree end to end.
func TestFederationCrossServerDelivery(t *testing.T) {
	r := newFedRig(t, 2, nil)
	a := ownedID(t, 0, 2, 1)
	b := ownedID(t, 1, 2, a+1)
	if err := r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200)); err != nil {
		t.Fatal(err)
	}
	if err := r.coord().AddNode(b, geom.V(100, 0), oneRadio(1, 200)); err != nil {
		t.Fatal(err)
	}
	fedWaitFor(t, func() bool {
		return r.scenes[1].HasNode(a) && r.scenes[1].HasNode(b)
	}, "scene replicated")

	ca := r.client(a, nil)
	skb := newSink()
	r.client(b, skb)

	const sends = 20
	for i := 0; i < sends; i++ {
		if err := ca.SendTo(b, 1, 0, []byte("x-server")); err != nil {
			t.Fatal(err)
		}
	}
	fedWaitFor(t, func() bool { return skb.count() == sends }, "cross-server deliveries")

	// A trunk batch counts as received once it is scheduled, which may
	// be after its first delivery.
	fedWaitFor(t, func() bool { return r.servers[1].Cluster().RecvEntries == sends }, "peer1 RecvEntries")
	// A writer counts its batch forwarded after the whole batch is sent,
	// so the sink can hold every packet a moment before it is counted.
	fedWaitFor(t, func() bool { return r.servers[1].Stats().Forwarded >= sends }, "peer1 Forwarded")
	cs0 := r.servers[0].Cluster()
	if cs0.RemoteEntries != sends {
		t.Errorf("peer0 RemoteEntries = %d, want %d", cs0.RemoteEntries, sends)
	}
	if cs0.TrunkDropped != 0 {
		t.Errorf("peer0 TrunkDropped = %d, want 0", cs0.TrunkDropped)
	}
	// The deliveries entered the schedule at the receiving peer only.
	st0, st1 := r.servers[0].Stats(), r.servers[1].Stats()
	if st0.Entered != 0 {
		t.Errorf("peer0 Entered = %d, want 0 (all targets remote)", st0.Entered)
	}
	if st1.Entered != sends || st1.Forwarded != sends {
		t.Errorf("peer1 Entered/Forwarded = %d/%d, want %d/%d",
			st1.Entered, st1.Forwarded, sends, sends)
	}
}

// A sampled packet crossing the trunk is traced on both peers under the
// same key, with nothing carried in the trunk entry: the ingesting peer
// records its ingest and resolve stages, the receiving peer — which
// samples the same packets — the receiver's enqueue and send stages and
// its stage histograms.
func TestFederationTracesCrossPeerPacket(t *testing.T) {
	r := newFedRig(t, 2, func(_ int, cfg *ServerConfig) { cfg.ObsSampleEvery = 1 })
	a := ownedID(t, 0, 2, 1)
	b := ownedID(t, 1, 2, a+1)
	if err := r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200)); err != nil {
		t.Fatal(err)
	}
	if err := r.coord().AddNode(b, geom.V(100, 0), oneRadio(1, 200)); err != nil {
		t.Fatal(err)
	}
	fedWaitFor(t, func() bool { return r.scenes[1].HasNode(a) && r.scenes[1].HasNode(b) }, "scene replicated")
	ca := r.client(a, nil)
	skb := newSink()
	r.client(b, skb)
	const sends = 5
	for i := 0; i < sends; i++ {
		if err := ca.SendTo(b, 1, 0, []byte("traced")); err != nil {
			t.Fatal(err)
		}
	}
	fedWaitFor(t, func() bool { return skb.count() == sends }, "cross-server deliveries")

	lifecycles := func(p int) []fidelity.Lifecycle {
		return fidelity.Lifecycles(r.servers[p].Fidelity().Recorder().Snapshot())
	}
	var remote []fidelity.Lifecycle
	fedWaitFor(t, func() bool { // the send stage races the sink callback
		remote = lifecycles(1)
		sent := 0
		for _, l := range remote {
			if len(l.Legs) == 1 && l.Legs[0].Send != 0 {
				sent++
			}
		}
		return sent == sends
	}, "send stages on the receiving peer")
	local := lifecycles(0)
	if len(local) != sends || len(remote) != sends {
		t.Fatalf("%d lifecycles on the ingesting peer and %d on the receiving one, want %d each", len(local), len(remote), sends)
	}
	for i := range local {
		l, g := local[i], remote[i]
		if l.Src != uint32(a) || l.Ingest == 0 || l.Resolve == 0 || l.Kept != 1 || len(l.Legs) != 0 {
			t.Errorf("ingesting peer's half %+v: want ingest and resolve only", l)
		}
		if g.Src != l.Src || g.Seq != l.Seq || g.Ingest != 0 || g.Legs[0].To != uint32(b) ||
			g.Legs[0].Enqueue < l.Resolve || g.Legs[0].Send < g.Legs[0].Enqueue {
			t.Errorf("receiving peer's half %+v does not continue %+v", g, l)
		}
	}
	if h := r.servers[1].Obs().FindHistogram("poem_enqueue_ns"); h.Count() != sends {
		t.Errorf("receiving peer's poem_enqueue_ns timed %d deliveries, want %d", h.Count(), sends)
	}
	if h := r.servers[1].Obs().FindHistogram("poem_send_ns"); h.Count() == 0 {
		t.Error("receiving peer's poem_send_ns timed no flush")
	}
}

// heldConn is a trunk connection whose TrunkBatch writes wait for the
// test: each announces its entry count on calls and takes its verdict
// from step. Other frames (the handshake) pass at once.
type heldConn struct {
	calls  chan int
	step   chan error
	closed chan struct{}
	once   sync.Once
}

func (c *heldConn) Send(m wire.Msg) error {
	defer wire.ReleaseMsg(m)
	tb, ok := m.(*wire.TrunkBatch)
	if !ok {
		return nil
	}
	select {
	case c.calls <- len(tb.Entries):
	case <-c.closed:
		return transport.ErrClosed
	}
	select {
	case err := <-c.step:
		return err
	case <-c.closed:
		return transport.ErrClosed
	}
}

func (c *heldConn) Recv() (wire.Msg, error) {
	<-c.closed
	return nil, io.EOF
}

func (c *heldConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *heldConn) Label() string { return "held" }

// metricValue reads one sample from a registry's exposition.
func metricValue(t *testing.T, srv *Server, name string) string {
	t.Helper()
	var b bytes.Buffer
	srv.Obs().WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s not exported", name)
	return ""
}

// The cluster's outbound counters are the trunks' ledger: RemoteEntries
// includes entries still pending behind a write, an entry whose write
// fails moves from RemoteEntries to TrunkDropped, and the two always sum
// to the entries routed.
func TestClusterStatsReadTheTrunkLedger(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(16), clk, 1)
	held := &heldConn{calls: make(chan int), step: make(chan error), closed: make(chan struct{})}
	srv, err := NewServer(ServerConfig{
		Clock: clk, Scene: sc, Shards: 1, ClusterID: "ledger-test",
		Peers:           []PeerSpec{{Addr: "self"}, {Addr: "peer", Dial: func() (transport.Conn, error) { return held, nil }}},
		TrunkMinBackoff: time.Hour, TrunkMaxBackoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remoteA := ownedID(t, 1, 2, 1)
	remoteB := ownedID(t, 1, 2, remoteA+1)
	routed := 0
	route := func() {
		targets := []sched.Target{{To: remoteA, Due: 5}, {To: remoteB, Due: 5}}
		if local := srv.cluster.routeRemote(&session{}, wire.Packet{Seq: uint32(routed)}, targets); len(local) != 0 {
			t.Fatalf("local targets %+v", local)
		}
		routed += len(targets)
	}
	check := func(step string, remote, pending, dropped uint64) {
		t.Helper()
		cs := srv.Cluster()
		if cs.RemoteEntries != remote || cs.PendingEntries != pending || cs.TrunkDropped != dropped {
			t.Fatalf("%s: remote %d pending %d dropped %d, want %d/%d/%d",
				step, cs.RemoteEntries, cs.PendingEntries, cs.TrunkDropped, remote, pending, dropped)
		}
		if cs.RemoteEntries+cs.TrunkDropped != uint64(routed) {
			t.Fatalf("%s: remote %d + dropped %d != routed %d", step, cs.RemoteEntries, cs.TrunkDropped, routed)
		}
		if ps := cs.PeerStats[1]; ps.Pending != pending || ps.DroppedEntries != dropped {
			t.Fatalf("%s: PeerStats[1] pending %d dropped %d", step, ps.Pending, ps.DroppedEntries)
		}
		if got, want := metricValue(t, srv, "poem_cluster_trunk_pending_entries"), fmt.Sprint(pending); got != want {
			t.Fatalf("%s: pending gauge %s, want %s", step, got, want)
		}
		if got, want := metricValue(t, srv, "poem_cluster_remote_entries_total"), fmt.Sprint(remote-pending); got != want {
			t.Fatalf("%s: remote-entries counter %s, want %s written", step, got, want)
		}
		if got, want := metricValue(t, srv, "poem_cluster_trunk_dropped_total"), fmt.Sprint(dropped); got != want {
			t.Fatalf("%s: trunk-dropped counter %s, want %s", step, got, want)
		}
	}
	settled := func(pending uint64) func() bool {
		return func() bool { return srv.Cluster().PendingEntries == pending }
	}

	// The first write is held; everything routed behind it is pending,
	// and all of it counts as remote.
	route()
	if n := <-held.calls; n != 2 {
		t.Fatalf("first write carries %d entries, want 2", n)
	}
	route()
	route()
	check("held write", 6, 6, 0)
	// The held write lands; the next one, carrying the other four
	// entries, fails: they leave RemoteEntries for TrunkDropped.
	held.step <- nil
	if n := <-held.calls; n != 4 {
		t.Fatalf("second write carries %d entries, want 4", n)
	}
	check("second write", 6, 4, 0)
	held.step <- errors.New("held: connection reset")
	fedWaitFor(t, settled(0), "failed write counted")
	check("failed write", 2, 0, 4)
	// Inside the backoff the trunk drops at once.
	route()
	check("backoff", 2, 0, 6)
}

// TestTrunkIngestCountsAfterScheduling: an inbound trunk batch counts in
// RecvEntries only once its entries are in the schedule, as a client
// packet counts in Received only once its deliveries are. A settled
// point reads Σ RemoteEntries == Σ RecvEntries and then drains the
// schedules; counting first let chaos seed 11 at two peers (go test
// ./internal/chaos -race -run TestChaosFederationTwoPeer -chaos.seed=11)
// drain before one entry arrived, and the ledger came up one short.
func TestTrunkIngestCountsAfterScheduling(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(16), clk, 1)
	srv, err := NewServer(ServerConfig{
		Clock: clk, Scene: sc, Shards: 1, ClusterID: "ingest-test",
		Peers: []PeerSpec{{Addr: "self"}, {Addr: "peer", Dial: func() (transport.Conn, error) {
			return nil, errors.New("unreachable")
		}}},
		TrunkMinBackoff: time.Hour, TrunkMaxBackoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Hold the schedule's lock: Drain runs its callback under it.
	sh := srv.shards[0]
	sh.pushFan(wire.Packet{}, []sched.Target{{Due: vclock.Max}})
	held, release := make(chan struct{}), make(chan struct{})
	go sh.scanner.Drain(func(sched.Item) { close(held); <-release })
	<-held
	local := ownedID(t, 0, 2, 1)
	tb := wire.AcquireTrunkBatch()
	tb.Entries = append(tb.Entries, wire.TrunkEntry{Due: 5, To: local}, wire.TrunkEntry{Due: 5, To: local})
	done := make(chan struct{})
	go func() {
		srv.cluster.ingestTrunkBatch(tb, &pushScratch{})
		close(done)
	}()
	fedWaitFor(t, func() bool { return srv.entered() == 3 }, "the batch to wait on the schedule's lock")
	early := srv.Cluster().RecvEntries
	close(release)
	<-done
	if early != 0 {
		t.Fatalf("RecvEntries %d while the batch waits to enter the schedule", early)
	}
	if n := srv.Cluster().RecvEntries; n != 2 {
		t.Fatalf("RecvEntries %d once scheduled, want 2", n)
	}
}

// TestFederationRedirect: registering with the wrong peer is rejected
// with the owner named, and DialCluster lands on the right peer first
// try.
func TestFederationRedirect(t *testing.T) {
	r := newFedRig(t, 2, nil)
	a := ownedID(t, 0, 2, 1)
	if err := r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200)); err != nil {
		t.Fatal(err)
	}
	fedWaitFor(t, func() bool { return r.scenes[1].HasNode(a) }, "node replicated")

	// Dial the non-owner directly: must be turned away with a redirect.
	_, err := Dial(ClientConfig{ID: a, Dial: r.dialers[1], LocalClock: r.clk})
	if err == nil {
		t.Fatal("non-owner accepted the registration")
	}
	if !strings.Contains(err.Error(), "belongs to peer 0") {
		t.Fatalf("rejection %q does not name the owner", err)
	}
	if idx, ok := parseRedirect(err.Error()); !ok || idx != 0 {
		t.Fatalf("parseRedirect(%q) = %d, %v", err, idx, ok)
	}

	// DialCluster computes the owner itself.
	c, err := DialCluster(ClientConfig{ID: a, LocalClock: r.clk}, r.dialers)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestSinglePeerClusterIsLegacy: a 1-peer cluster runs the cluster code
// path (Cluster() non-nil) with no trunks, no redirects and no remote
// routing — the behavioral twin of Peers: nil.
func TestSinglePeerClusterIsLegacy(t *testing.T) {
	r := newRig(t, func(cfg *ServerConfig) {
		cfg.Peers = []PeerSpec{{Addr: "self"}}
		cfg.ClusterID = "solo"
	})
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(100, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	if err := c1.SendTo(2, 1, 0, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	sk.wait(t, 5*time.Second)
	cs := r.server.Cluster()
	if cs == nil {
		t.Fatal("Cluster() nil on a 1-peer cluster")
	}
	if cs.Peers != 1 || cs.RemoteEntries != 0 || cs.RecvEntries != 0 || cs.TrunkDropped != 0 {
		t.Errorf("1-peer cluster saw remote traffic: %+v", cs)
	}
	if st := r.settle(t, 1, 1); st.Entered == 0 {
		t.Errorf("local pipeline idle: %+v", st)
	}
}

// TestFederationConfigValidation: bad Self/Coordinator are rejected.
func TestFederationConfigValidation(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(16), clk, 1)
	peers := []PeerSpec{{Addr: "a"}, {Addr: "b"}}
	if _, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Peers: peers, Self: 2}); err == nil {
		t.Error("Self out of range accepted")
	}
	if _, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Peers: peers, Coordinator: -1}); err == nil {
		t.Error("negative Coordinator accepted")
	}
}

// unreachable dials nothing; a peer configured with it never connects.
func unreachable() (transport.Conn, error) { return nil, errors.New("unreachable") }

// TestTrunkRefusesMisconfiguredPeers: a trunk hello from this peer's own
// index or from a peer that takes another peer for the coordinator is
// refused with a Bye naming both configurations, and a scene frame is
// applied only from the coordinator's trunk — anything else is counted
// as a replication error and changes nothing.
func TestTrunkRefusesMisconfiguredPeers(t *testing.T) {
	src := scene.New(radio.NewIndexed(16), vclock.NewManual(0), 1)
	if err := src.AddNode(5, geom.V(0, 0), oneRadio(1, 100)); err != nil {
		t.Fatal(err)
	}
	seq, parts := src.EncodeState(1 << 10)
	hello := func(from, coord uint32) *wire.TrunkHello {
		return &wire.TrunkHello{Ver: wire.Version, From: from, Coordinator: coord, Seed: 7, Cluster: "misconf"}
	}
	reseeded := hello(0, 0)
	reseeded.Seed = 8
	this := func(self int) string {
		return fmt.Sprintf("this is cluster %q version %d peer %d coordinator 0", "misconf", wire.Version, self)
	}
	for _, tc := range []struct {
		name    string
		self    int
		hello   *wire.TrunkHello
		bye     []string // what the refusal must name; nil when accepted
		applied bool
	}{
		{"frame from the coordinator", 1, hello(0, 0), nil, true},
		{"hello from itself", 1, hello(1, 0), []string{"peer 1 coordinator 0;", this(1)}, false},
		{"hello naming another coordinator", 1, hello(2, 2), []string{"peer 2 coordinator 2;", this(1)}, false},
		{"hello with another seed", 1, reseeded, []string{"the hello's seed is 8, this peer's 7", this(1)}, false},
		{"frame from a follower", 1, hello(2, 0), nil, false},
		{"frame sent to the coordinator", 0, hello(1, 0), nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := scene.New(radio.NewIndexed(16), vclock.NewManual(0), 1)
			srv, err := NewServer(ServerConfig{
				Clock: vclock.NewManual(0), Scene: sc, Shards: 1, Seed: 7, ClusterID: "misconf", Self: tc.self,
				Peers:           []PeerSpec{{Dial: unreachable}, {Dial: unreachable}, {Dial: unreachable}},
				TrunkMinBackoff: time.Hour, TrunkMaxBackoff: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn := &scriptConn{recvs: []wire.Msg{tc.hello, &wire.TrunkScene{Origin: 1, Seq: seq, Snapshot: true, Data: parts[0]}}}
			srv.handle(conn)
			var bye string
			for _, m := range conn.sent {
				if b, ok := m.(*wire.Bye); ok {
					bye = b.Reason
				}
			}
			if tc.bye == nil && bye != "" {
				t.Fatalf("refused: %s", bye)
			}
			for _, want := range tc.bye {
				if !strings.Contains(bye, want) {
					t.Fatalf("refusal %q does not name %q", bye, want)
				}
			}
			if got := sc.HasNode(5); got != tc.applied {
				t.Fatalf("scene frame applied: %v, want %v", got, tc.applied)
			}
			wantErrs := uint64(0)
			if tc.bye == nil && !tc.applied {
				wantErrs = 1
			}
			if got := srv.Cluster().RepErrors; got != wantErrs {
				t.Fatalf("RepErrors %d, want %d", got, wantErrs)
			}
		})
	}
}

// gatedDial is a trunk dialer that can be cut: while cut, dials fail and
// the connections it handed out are closed.
type gatedDial struct {
	dial  transport.Dialer
	mu    sync.Mutex
	cut   bool
	conns []transport.Conn
}

func (g *gatedDial) Dial() (transport.Conn, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cut {
		return nil, errors.New("gated: cut")
	}
	c, err := g.dial()
	if err == nil {
		g.conns = append(g.conns, c)
	}
	return c, err
}

func (g *gatedDial) set(cut bool) {
	g.mu.Lock()
	g.cut = cut
	conns := g.conns
	g.conns = nil
	g.mu.Unlock()
	if cut {
		for _, c := range conns {
			c.Close()
		}
	}
}

// waitConverged waits until follower p restored a snapshot (a replica
// follows no journal before one), applied the coordinator's journal seq,
// told the coordinator so, and the coordinator found its digest equal;
// then it checks the two scenes' digests directly.
func (r *fedRig) waitConverged(p int) {
	r.t.Helper()
	fedWaitFor(r.t, func() bool {
		c, f := r.servers[0].Cluster(), r.servers[p].Cluster()
		return f.Snapshots > 0 && f.AppliedSeq == c.RepSeq && c.PeerStats[p].AppliedSeq == c.RepSeq && c.Divergence == 0
	}, "the follower to converge")
	_, want := r.coord().Digest()
	if _, got := r.scenes[p].Digest(); got != want {
		r.t.Fatalf("follower digest %x, coordinator %x", got, want)
	}
}

// TestReplicationOutlivesJournal: a follower cut off while the
// coordinator journals ten rings' worth of mutations costs the
// coordinator no memory beyond the ring and its cursor, and after the
// heal it converges through exactly one snapshot.
func TestReplicationOutlivesJournal(t *testing.T) {
	var gate *gatedDial
	r := newFedRig(t, 2, func(i int, cfg *ServerConfig) {
		if i == 0 {
			gate = &gatedDial{dial: cfg.Peers[1].Dial}
			cfg.Peers[1].Dial = gate.Dial
		}
	})
	a, b := ownedID(t, 0, 2, 1), ownedID(t, 1, 2, 1)
	r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200))
	r.coord().AddNode(b, geom.V(50, 0), oneRadio(2, 200))
	r.waitConverged(1)
	// Each side counts a snapshot just after handling it; the first
	// contact is one.
	snaps := func() (sent, restored uint64) {
		return r.servers[0].Cluster().Snapshots, r.servers[1].Cluster().Snapshots
	}
	fedWaitFor(t, func() bool { s, d := snaps(); return s == 1 && d == 1 }, "the first contact's snapshot")

	gate.set(true)
	fedWaitFor(t, func() bool { return !r.servers[0].Cluster().PeerStats[1].TrunkUp }, "the cut trunk to go down")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10*scene.JournalRecords; i++ {
		r.coord().MoveNode(a, geom.V(float64(i%1000), float64(i%7)))
	}
	r.coord().SetRadios(b, oneRadio(3, 120))
	runtime.GC()
	runtime.ReadMemStats(&after)
	if first, last := r.coord().JournalSpan(); last-first+1 > scene.JournalRecords {
		t.Fatalf("journal holds %d records, bound %d", last-first+1, scene.JournalRecords)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
		t.Fatalf("coordinator heap grew %d KiB while a follower was cut off", grew>>10)
	}
	gate.set(false)
	r.waitConverged(1)
	fedWaitFor(t, func() bool { s, d := snaps(); return s > 1 && d > 1 }, "both sides to count the catch-up snapshot")
	for p, srv := range r.servers {
		cs := srv.Cluster()
		if cs.Snapshots != 2 || cs.RepErrors != 0 {
			t.Errorf("peer %d: %d snapshots after the first contact's, %d replication errors; want 1 and 0",
				p, cs.Snapshots-1, cs.RepErrors)
		}
	}
	if got := metricValue(t, r.servers[1], "poem_cluster_scene_snapshots_total"); got != "2" {
		t.Errorf("follower poem_cluster_scene_snapshots_total = %s, want 2", got)
	}
}

// TestFollowerRestartResynchronizes: a follower restarted with an empty
// scene after the coordinator mutated asks for what it lacks and gets
// it, with no further mutation to reveal the gap.
func TestFollowerRestartResynchronizes(t *testing.T) {
	r := newFedRig(t, 2, nil)
	a, b := ownedID(t, 0, 2, 1), ownedID(t, 1, 2, 1)
	r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200))
	r.coord().AddNode(b, geom.V(50, 0), oneRadio(1, 200))
	r.coord().MoveNode(a, geom.V(10, 10))
	r.waitConverged(1)
	r.restart(1)
	r.waitConverged(1)
	if n, ok := r.scenes[1].Node(a); !ok || n.Pos != geom.V(10, 10) || !r.scenes[1].HasNode(b) {
		t.Fatalf("restarted follower holds %v", r.scenes[1].Snapshot())
	}
	r.client(b, nil) // the restarted peer owns b and registers it again
}

// swallowConn is a trunk connection that passes writes on until the
// first scene frame take selects, which it takes and never delivers;
// then it fails every write — a frame the kernel accepted on a
// connection the peer never read again. It wraps the first connection
// its dialer makes.
type swallowConn struct {
	transport.Conn
	take      func(*wire.TrunkScene) bool
	mu        sync.Mutex
	swallowed bool
}

func (c *swallowConn) dialer(real transport.Dialer) transport.Dialer {
	return func() (transport.Conn, error) {
		conn, err := real()
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil || c.Conn != nil {
			return conn, err
		}
		c.Conn = conn
		return c, nil
	}
}

func (c *swallowConn) Send(m wire.Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.swallowed {
		wire.ReleaseMsg(m)
		c.Conn.Close()
		return errors.New("swallow: connection reset")
	}
	if ts, ok := m.(*wire.TrunkScene); ok && c.take(ts) {
		c.swallowed = true
		wire.ReleaseMsg(m)
		return nil
	}
	return c.Conn.Send(m)
}

func (c *swallowConn) wasSwallowed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.swallowed
}

// TestUnreadSceneFrameIsResent: a journal frame lost with its connection
// is sent again, as journal, once the follower hears the coordinator
// wrote it.
func TestUnreadSceneFrameIsResent(t *testing.T) {
	sw := &swallowConn{take: func(ts *wire.TrunkScene) bool { return !ts.Snapshot }}
	r := newFedRig(t, 2, func(i int, cfg *ServerConfig) {
		if i == 0 {
			cfg.Peers[1].Dial = sw.dialer(cfg.Peers[1].Dial)
		}
	})
	r.waitConverged(1)
	a := ownedID(t, 0, 2, 1)
	r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200))
	fedWaitFor(t, sw.wasSwallowed, "the frame to be swallowed")
	r.waitConverged(1)
	if !r.scenes[1].HasNode(a) {
		t.Fatal("the swallowed node never reached the follower")
	}
	if got := r.servers[1].Cluster().Snapshots; got != 1 {
		t.Fatalf("follower restored %d snapshots, want only the first contact's", got)
	}
}

// TestCoordinatorRestartResynchronizes: a coordinator restarted with an
// empty scene starts a new journal, whose seqs begin again below the
// follower's. The follower must take the new coordinator's scene — its
// old nodes gone — and not drop the new records as already applied,
// even when the new coordinator's first snapshot is lost with its
// connection.
func TestCoordinatorRestartResynchronizes(t *testing.T) {
	sw, starts := &swallowConn{take: func(ts *wire.TrunkScene) bool { return ts.Snapshot }}, 0
	r := newFedRig(t, 2, func(i int, cfg *ServerConfig) {
		if i != 0 {
			return
		}
		if starts++; starts == 2 { // the restarted coordinator
			cfg.Peers[1].Dial = sw.dialer(cfg.Peers[1].Dial)
		}
	})
	a, b := ownedID(t, 0, 2, 1), ownedID(t, 1, 2, 1)
	r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200))
	r.coord().AddNode(b, geom.V(50, 0), oneRadio(1, 200))
	r.coord().MoveNode(a, geom.V(10, 10))
	r.waitConverged(1)
	r.restart(0)
	fedWaitFor(t, sw.wasSwallowed, "the new coordinator's first snapshot to be lost")
	c := ownedID(t, 0, 2, a+1)
	r.coord().AddNode(c, geom.V(5, 5), oneRadio(2, 100)) // seq 1, under the follower's 3
	r.waitConverged(1)
	if r.scenes[1].HasNode(a) || r.scenes[1].HasNode(b) || !r.scenes[1].HasNode(c) {
		t.Fatalf("follower holds %v after the coordinator restarted", r.scenes[1].Snapshot())
	}
	if got := r.servers[1].Cluster().RepErrors; got != 0 {
		t.Fatalf("%d replication errors", got)
	}
}

// TestFollowerDivergenceIsReported: a follower scene changed behind
// replication's back reads as diverged on the coordinator within a few
// heartbeats — in the stats, the gauge and the control line.
func TestFollowerDivergenceIsReported(t *testing.T) {
	r := newFedRig(t, 2, nil)
	a := ownedID(t, 0, 2, 1)
	r.coord().AddNode(a, geom.V(0, 0), oneRadio(1, 200))
	r.waitConverged(1)
	r.scenes[1].MoveNode(a, geom.V(99, 0))
	fedWaitFor(t, func() bool { return r.servers[0].Cluster().Divergence == 1 }, "the coordinator to see the divergence")
	if !r.servers[0].Cluster().PeerStats[1].Diverged {
		t.Error("peer 1 not marked diverged")
	}
	if got := metricValue(t, r.servers[0], "poem_cluster_scene_divergence"); got != "1" {
		t.Errorf("poem_cluster_scene_divergence = %s", got)
	}
}
