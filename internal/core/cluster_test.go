package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// fedRig is an in-process federation: n servers sharing one emulation
// timebase, trunked over in-proc listeners, peer 0 coordinating.
type fedRig struct {
	t       *testing.T
	clk     vclock.WaitClock
	scenes  []*scene.Scene
	servers []*Server
	liss    []*transport.InprocListener
	dialers []transport.Dialer
}

func newFedRig(t *testing.T, n int, mutate func(i int, cfg *ServerConfig)) *fedRig {
	t.Helper()
	clk := vclock.NewSystem(50)
	r := &fedRig{t: t, clk: clk}
	peers := make([]PeerSpec, n)
	for i := 0; i < n; i++ {
		lis := transport.NewInprocListener()
		r.liss = append(r.liss, lis)
		r.dialers = append(r.dialers, lis.Dialer())
		peers[i] = PeerSpec{Addr: fmt.Sprintf("peer%d", i), Dial: lis.Dialer()}
	}
	for i := 0; i < n; i++ {
		sc := scene.New(radio.NewIndexed(250), clk, 1)
		r.scenes = append(r.scenes, sc)
		cfg := ServerConfig{
			Clock: clk, Scene: sc, Seed: 7, Shards: *flagShards,
			Peers: peers, Self: i, ClusterID: "fed-test",
			StatusEvery:     2 * time.Millisecond,
			TrunkMinBackoff: time.Millisecond,
			TrunkMaxBackoff: 8 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, srv)
		lis, done := r.liss[i], make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(lis)
		}()
		t.Cleanup(func() {
			lis.Close()
			srv.Close()
			<-done
		})
	}
	return r
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
		if local, _ := srv.cluster.routeRemote(&session{}, wire.Packet{Seq: uint32(routed)}, 0, targets); len(local) != 0 {
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
			t.Fatalf("%s: peer line pending %d dropped %d", step, ps.Pending, ps.DroppedEntries)
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
	sh.pushBatch([]sched.Item{{Due: vclock.Max}})
	held, release := make(chan struct{}), make(chan struct{})
	go sh.scanner.Drain(func(sched.Item) { close(held); <-release })
	<-held
	local := ownedID(t, 0, 2, 1)
	tb := wire.AcquireTrunkBatch()
	tb.Entries = append(tb.Entries, wire.TrunkEntry{Due: 5, To: local}, wire.TrunkEntry{Due: 5, To: local})
	done := make(chan struct{})
	go func() {
		srv.cluster.ingestTrunkBatch(tb, &trunkIngress{})
		close(done)
	}()
	fedWaitFor(t, func() bool { return srv.mEntered.Load() == 3 }, "the batch to wait on the schedule's lock")
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
