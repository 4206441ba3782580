package control

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
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
	emu, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sc, emu, geom.R(0, 0, 500, 500))
	srv.Execute("add 1 pos 100,100 radio ch=1 range=200")
	srv.Execute("add 2 pos 150,100 radio ch=1 range=200")
	out := srv.Execute("stats")
	if !strings.HasPrefix(out, "clients=0 received=0") {
		t.Errorf("stats aggregate line: %q", out)
	}
	// Two adds on channel 1 → two view rebuilds, one line for the channel.
	if !strings.Contains(out, "ch1 viewrebuilds=2") {
		t.Errorf("stats missing per-channel rebuild line:\n%s", out)
	}
	// Idle server: no samples yet, so no stage-latency lines (the
	// per-shard fidelity line prints lagp99= unconditionally).
	if strings.Contains(out, "samples=") {
		t.Errorf("stats printed latency lines with no samples:\n%s", out)
	}
	if !strings.Contains(out, "health=healthy") {
		t.Errorf("stats missing health field:\n%s", out)
	}
	// Feed the ingest histogram directly; the quantile line must appear.
	emu.Obs().FindHistogram("poem_ingest_ns").Observe(1500 * time.Nanosecond)
	out = srv.Execute("stats")
	if !strings.Contains(out, "ingest samples=1") || !strings.Contains(out, "p99=") {
		t.Errorf("stats missing stage latency line:\n%s", out)
	}
}

// TestStatsClusterLines verifies a federated server's stats reply
// includes the cluster summary and per-peer lines (exercised against a
// coordinator whose one follower is unreachable, so no trunks connect).
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
	if !strings.Contains(out, "cluster id=ctl-test self=0 coordinator=0 peers=2 repseq=0 appliedseq=0 snapshots=0") {
		t.Errorf("stats missing cluster summary line:\n%s", out)
	}
	if !strings.Contains(out, "peer 0 addr=self (self)") || !strings.Contains(out, "peer 1 addr=other health=") ||
		!strings.Contains(out, "digest=ok trunkup=false") {
		t.Errorf("stats missing per-peer lines:\n%s", out)
	}
	// Unclustered servers must not print cluster lines.
	emu2, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: scene.New(radio.NewIndexed(8), clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer emu2.Close()
	if out := NewServer(sc, emu2, geom.R(0, 0, 500, 500)).Execute("stats"); strings.Contains(out, "cluster id=") {
		t.Errorf("unclustered stats printed cluster line:\n%s", out)
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
