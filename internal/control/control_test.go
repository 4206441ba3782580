package control

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func newControl() (*Server, *scene.Scene) {
	sc := scene.New(radio.NewIndexed(200), vclock.NewManual(0), 1)
	return NewServer(sc, nil, geom.R(0, 0, 500, 500)), sc
}

func TestExecuteMutations(t *testing.T) {
	srv, sc := newControl()
	if out := srv.Execute("add 1 pos 100,100 radio ch=1 range=200"); out != "ok" {
		t.Fatalf("add: %q", out)
	}
	if !sc.HasNode(1) {
		t.Fatal("node not added")
	}
	if out := srv.Execute("move 1 to 250,250"); out != "ok" {
		t.Fatalf("move: %q", out)
	}
	n, _ := sc.Node(1)
	if n.Pos != geom.V(250, 250) {
		t.Errorf("pos: %v", n.Pos)
	}
	if out := srv.Execute("range 1 ch=1 120"); out != "ok" {
		t.Fatalf("range: %q", out)
	}
	n, _ = sc.Node(1)
	if r, _ := n.RangeOn(1); r != 120 {
		t.Errorf("range: %v", r)
	}
	if out := srv.Execute("radios 1 radio ch=3 range=90"); out != "ok" {
		t.Fatalf("radios: %q", out)
	}
	if out := srv.Execute("linkmodel ch=1 p0=0.1 p1=0.9 d0=50 r=200"); out != "ok" {
		t.Fatalf("linkmodel: %q", out)
	}
	if out := srv.Execute("pause"); out != "ok" || !sc.Paused() {
		t.Fatalf("pause: %q", out)
	}
	if out := srv.Execute("resume"); out != "ok" || sc.Paused() {
		t.Fatalf("resume: %q", out)
	}
	if out := srv.Execute("remove 1"); out != "ok" || sc.HasNode(1) {
		t.Fatalf("remove: %q", out)
	}
}

func TestExecuteErrors(t *testing.T) {
	srv, _ := newControl()
	for _, cmd := range []string{
		"frobnicate",
		"add 1 pos",
		"move 1 2,2",
		"add 1 pos 0,0 radio ch=x range=1",
	} {
		if out := srv.Execute(cmd); !strings.HasPrefix(out, "err:") {
			t.Errorf("Execute(%q) = %q, want err", cmd, out)
		}
	}
	// Duplicate add surfaces the scene error.
	srv.Execute("add 1 pos 0,0")
	if out := srv.Execute("add 1 pos 0,0"); !strings.HasPrefix(out, "err:") {
		t.Errorf("duplicate add: %q", out)
	}
}

func TestShowAndNodes(t *testing.T) {
	srv, _ := newControl()
	srv.Execute("add 7 pos 100,100 radio ch=1 range=50")
	show := srv.Execute("show")
	if !strings.Contains(show, "7 @") {
		t.Errorf("show:\n%s", show)
	}
	nodes := srv.Execute("nodes")
	if !strings.Contains(nodes, "VMN7") || !strings.Contains(nodes, "ch1") {
		t.Errorf("nodes: %q", nodes)
	}
}

func TestStatsWithoutEmulator(t *testing.T) {
	srv, _ := newControl()
	if out := srv.Execute("stats"); !strings.HasPrefix(out, "err:") {
		t.Errorf("stats: %q", out)
	}
}

func TestStatsWithEmulator(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(200), clk, 1)
	emu, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer emu.Close()
	srv := NewServer(sc, emu, geom.R(0, 0, 500, 500))
	srv.Execute("add 1 pos 100,100 radio ch=1 range=200")
	srv.Execute("add 2 pos 150,100 radio ch=1 range=200")
	out := srv.Execute("stats")
	for _, want := range []string{
		"poem_clients 0", "poem_received_total 0", "poem_health 0",
		// Per shard: the send-queue depth and the scanner's batch fires.
		`poem_shard_queue_depth{shard="0"} 0`, `poem_shard_queue_depth{shard="1"} 0`,
		`poem_shard_fire_batches_total{shard="0"} 0`, `poem_shard_fire_batches_total{shard="1"} 0`,
		// Two adds on channel 1 → two view rebuilds of its view.
		`poem_scene_channel_view_rebuilds_total{channel="1"} 2`,
		"poem_ingest_ns_count 0",
	} {
		if !hasLine(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
	// A channel has no series before its first view.
	if strings.Contains(out, `{channel="3"}`) {
		t.Errorf("stats has a series for a channel with no view:\n%s", out)
	}
	srv.Execute("radios 2 radio ch=3 range=90")
	if out := srv.Execute("stats"); !strings.Contains(out, `poem_scene_channel_view_rebuilds_total{channel="3"} 1`) {
		t.Errorf("stats missing the new channel's rebuilds:\n%s", out)
	}
	// Feed the ingest histogram directly; its count and quantiles follow.
	emu.Obs().FindHistogram("poem_ingest_ns").Observe(1500 * time.Nanosecond)
	out = srv.Execute("stats")
	if !hasLine(out, "poem_ingest_ns_count 1") || !strings.Contains(out, "\npoem_ingest_ns_p99 ") {
		t.Errorf("stats missing the stage histogram's samples:\n%s", out)
	}
}

// TestStatsClusterLines verifies a federated server's stats reply
// carries the cluster identity and the per-peer trunk families
// (exercised against a coordinator whose one follower is unreachable,
// so no trunk connects).
func TestStatsClusterLines(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(200), clk, 1)
	unreachable := func() (transport.Conn, error) { return nil, errors.New("unreachable") }
	emu, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, ClusterID: "ctl-test",
		Peers:           []core.PeerSpec{{Addr: "self"}, {Addr: "other", Dial: unreachable}},
		TrunkMinBackoff: time.Hour, TrunkMaxBackoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer emu.Close()
	srv := NewServer(sc, emu, geom.R(0, 0, 500, 500))
	out := srv.Execute("stats")
	for _, want := range []string{
		`poem_cluster_info{cluster="ctl-test"} 1`, "poem_cluster_self 0", "poem_cluster_coordinator 0",
		"poem_cluster_peers 2", "poem_cluster_applied_seq 0", "poem_cluster_scene_snapshots_total 0",
		`poem_cluster_peer_health{peer="1"} 0`, `poem_cluster_peer_applied_seq{peer="1"} 0`,
		`poem_cluster_peer_digest_diverged{peer="1"} 0`,
		`poem_cluster_peer_trunk_up{peer="1"} 0`,
		`poem_cluster_peer_trunk_entries_total{peer="1"} 0`,
		`poem_cluster_peer_trunk_frames_total{peer="1"} 0`,
		`poem_cluster_peer_trunk_dropped_total{peer="1"} 0`,
		`poem_cluster_peer_trunk_pending_entries{peer="1"} 0`,
		`poem_cluster_peer_trunk_reconnects_total{peer="1"} 0`,
	} {
		if !hasLine(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
	// The trunk to the unreachable follower has tried to dial.
	if !strings.Contains(out, `poem_cluster_peer_trunk_dial_failures_total{peer="1"} `) {
		t.Errorf("stats missing the trunk's dial failures:\n%s", out)
	}
	// This peer has no trunk to itself.
	if strings.Contains(out, `poem_cluster_peer_trunk_up{peer="0"}`) {
		t.Errorf("stats has a trunk to this peer itself:\n%s", out)
	}
	// Unclustered servers must not print cluster families.
	emu2, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: scene.New(radio.NewIndexed(8), clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer emu2.Close()
	if out := NewServer(sc, emu2, geom.R(0, 0, 500, 500)).Execute("stats"); strings.Contains(out, "poem_cluster_") {
		t.Errorf("unclustered stats printed cluster families:\n%s", out)
	}
}

// TestStatsIsTheRegistry runs traffic across a two-peer federation on a
// manual clock and checks that the stats verb is the registry's
// exposition, line for line — a counter registered on the registry
// shows with no other edit — and that sessions lists each session.
func TestStatsIsTheRegistry(t *testing.T) {
	clk := vclock.NewManual(0)
	var (
		liss    [2]*transport.InprocListener
		dialers []transport.Dialer
		peers   []core.PeerSpec
		emus    [2]*core.Server
		scenes  [2]*scene.Scene
	)
	for i := range liss {
		liss[i] = transport.NewInprocListener()
		dialers = append(dialers, liss[i].Dialer())
		peers = append(peers, core.PeerSpec{Addr: fmt.Sprint("peer", i), Dial: liss[i].Dialer()})
	}
	for i := range emus {
		scenes[i] = scene.New(radio.NewIndexed(250), clk, 1)
		emu, err := core.NewServer(core.ServerConfig{
			Clock: clk, Scene: scenes[i], Seed: 7, Shards: 2, TickStep: time.Hour,
			Peers: peers, Self: i, ClusterID: "ctl-fed",
			// No heartbeats: each counter must hold still between renders.
			StatusEvery:     time.Hour,
			TrunkMinBackoff: time.Millisecond, TrunkMaxBackoff: 8 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		emus[i] = emu
		done := make(chan struct{})
		go func() { defer close(done); emu.Serve(liss[i]) }()
		t.Cleanup(func() { liss[i].Close(); emu.Close(); <-done })
	}
	ctl := NewServer(scenes[0], emus[0], geom.R(0, 0, 500, 500))
	a, b := ownedBy(0), ownedBy(1)
	for _, cmd := range []string{
		fmt.Sprintf("add %d pos 0,0 radio ch=1 range=200", a),
		fmt.Sprintf("add %d pos 100,0 radio ch=1 range=200", b),
	} {
		if out := ctl.Execute(cmd); out != "ok" {
			t.Fatalf("%s: %s", cmd, out)
		}
	}
	waitFor(t, func() bool { return scenes[1].HasNode(a) && scenes[1].HasNode(b) }, "the scene to replicate")
	var got atomic.Int64
	var clients [2]*core.Client
	for i, id := range []radio.NodeID{a, b} {
		c, err := core.DialCluster(core.ClientConfig{ID: id, LocalClock: clk, SyncRounds: 1,
			OnPacket: func(wire.Packet) { got.Add(1) }}, dialers)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(c.Close)
	}
	const sends = 8
	for i := 0; i < sends; i++ {
		if err := clients[0].SendTo(b, 1, 0, []byte("across")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return emus[1].Cluster().RecvEntries == sends }, "the trunk to carry every delivery")
	clk.Advance(time.Second)
	waitFor(t, func() bool { return got.Load() == sends }, "every delivery")
	if !emus[0].Quiesce(5*time.Second) || !emus[1].Quiesce(5*time.Second) {
		t.Fatal("pipelines did not drain")
	}

	emus[0].Obs().Counter("poem_test_registered_total", "registered by the test").Add(3)
	render := func() string {
		var b strings.Builder
		if err := emus[0].Obs().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(b.String(), "\n")
	}
	want, out := render(), ctl.Execute("stats")
	if wl, ol := strings.Split(want, "\n"), strings.Split(out, "\n"); len(wl) != len(ol) {
		t.Errorf("stats has %d lines, the registry %d", len(ol), len(wl))
	} else {
		for i := range wl {
			if wl[i] != ol[i] {
				t.Errorf("line %d: stats %q, registry %q", i+1, ol[i], wl[i])
			}
		}
	}
	for _, line := range []string{
		"poem_test_registered_total 3",
		fmt.Sprint("poem_received_total ", sends),
		fmt.Sprintf(`poem_cluster_peer_trunk_entries_total{peer="1"} %d`, sends),
		`poem_cluster_peer_trunk_up{peer="1"} 1`,
		`poem_cluster_peer_trunk_pending_entries{peer="1"} 0`,
	} {
		if !hasLine(out, line) {
			t.Errorf("stats missing %q:\n%s", line, out)
		}
	}
	if sess := ctl.Execute("sessions"); sess != fmt.Sprintf("  %v received=%d forwarded=0 queuedrops=0 queuedepth=0", a, sends) {
		t.Errorf("sessions on the sender's peer: %q", sess)
	}
	ctl1 := NewServer(scenes[1], emus[1], geom.R(0, 0, 500, 500))
	if sess := ctl1.Execute("sessions"); sess != fmt.Sprintf("  %v received=0 forwarded=%d queuedrops=0 queuedepth=0", b, sends) {
		t.Errorf("sessions on the receiver's peer: %q", sess)
	}
}

// ownedBy returns the smallest VMN id owned by peer in a two-peer
// cluster.
func ownedBy(peer int) radio.NodeID {
	id := radio.NodeID(1)
	for core.PeerIndex(id, 2) != peer {
		id++
	}
	return id
}

// hasLine reports whether line is one whole line of out.
func hasLine(out, line string) bool {
	return strings.Contains("\n"+out+"\n", "\n"+line+"\n")
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

func TestSessionsWithoutEmulator(t *testing.T) {
	srv, _ := newControl()
	if out := srv.Execute("sessions"); !strings.HasPrefix(out, "err:") {
		t.Errorf("sessions: %q", out)
	}
}

func TestSessionOverReaderWriter(t *testing.T) {
	srv, sc := newControl()
	in := strings.NewReader("add 2 pos 5,5\n\nnodes\nquit\n")
	var out strings.Builder
	srv.Session(in, &out)
	got := out.String()
	if strings.Count(got, "\n.\n") < 2 {
		t.Errorf("missing terminators:\n%s", got)
	}
	if !strings.Contains(got, "bye") {
		t.Errorf("quit not acknowledged:\n%s", got)
	}
	if !sc.HasNode(2) {
		t.Error("session command not applied")
	}
}

func TestTCPControlSession(t *testing.T) {
	srv, sc := newControl()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ListenAndServe("127.0.0.1:0")
	}()
	// Wait for the listener to bind.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Addr() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("add 9 pos 10,10 radio ch=1 range=100\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ok" {
		t.Fatalf("reply %q err %v", line, err)
	}
	if dot, _ := br.ReadString('\n'); strings.TrimSpace(dot) != "." {
		t.Fatalf("terminator %q", dot)
	}
	if !sc.HasNode(9) {
		t.Error("TCP command not applied")
	}
	conn.Write([]byte("quit\n"))
	srv.Close()
	<-done
}

func TestDumpExportsScene(t *testing.T) {
	srv, _ := newControl()
	srv.Execute("add 5 pos 50,60 radio ch=2 range=120")
	out := srv.Execute("dump")
	if !strings.Contains(out, "add 5 pos 50,60 radio ch=2 range=120") {
		t.Errorf("dump:\n%s", out)
	}
	if !strings.Contains(out, "region 0 0 500 500") {
		t.Errorf("dump region:\n%s", out)
	}
}
