// Package e2e wires the whole system together the way cmd/poemd does —
// real TCP transports, the control protocol, a scenario script,
// protocol-bearing clients, recording, statistics and replay — and
// checks the pieces agree with each other. These are the "would a
// downstream user's deployment actually work" tests.
package e2e

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/routing"
	"repro/internal/scene"
	"repro/internal/script"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// deployment is a poemd-equivalent: server + recording + TCP listener.
type deployment struct {
	clk   *vclock.System
	scene *scene.Scene
	store *record.Store
	srv   *core.Server
	lis   transport.Listener
}

func deploy(t *testing.T, scale float64) *deployment {
	t.Helper()
	clk := vclock.NewSystem(scale)
	sc := scene.New(radio.NewIndexed(250), clk, 11)
	store := record.NewStore()
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Store: store, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	t.Cleanup(func() {
		lis.Close()
		srv.Close()
		<-done
	})
	return &deployment{clk: clk, scene: sc, store: store, srv: srv, lis: lis}
}

// TestFullStackOverTCP drives the complete workflow: build the scene
// through the control protocol, attach real protocol clients over TCP,
// route traffic multi-hop, mutate the scene live, then save the
// recording, reload it, and replay it.
func TestFullStackOverTCP(t *testing.T) {
	d := deploy(t, 100)
	ctrl := control.NewServer(d.scene, d.srv, geom.R(0, 0, 600, 600))

	// 1. Scene construction through the operator interface — a 3-hop
	// chain so traffic must actually route.
	for _, cmd := range []string{
		"add 1 pos 0,0 radio ch=1 range=150",
		"add 2 pos 120,0 radio ch=1 range=150",
		"add 3 pos 240,0 radio ch=1 range=150",
		"add 4 pos 360,0 radio ch=1 range=150",
	} {
		if out := ctrl.Execute(cmd); out != "ok" {
			t.Fatalf("%s → %q", cmd, out)
		}
	}

	// 2. Protocol clients over real TCP.
	const beacon = 300 * time.Millisecond
	protos := map[radio.NodeID]routing.Protocol{}
	for id := radio.NodeID(1); id <= 4; id++ {
		p := routing.NewHybrid(routing.Config{HorizonHops: 4, EntryTTLTicks: 3})
		c, err := core.Dial(core.ClientConfig{
			ID: id, Dial: transport.TCPDialer(d.lis.Addr()),
			LocalClock: d.clk, OnPacket: p.HandlePacket,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		p.Start(c)
		t.Cleanup(p.Stop)
		tk := vclock.Every(d.clk, beacon, func(vclock.Time) { p.Tick() })
		t.Cleanup(tk.Stop)
		protos[id] = p
	}

	// 3. Wait for convergence: VMN1 must learn the 3-hop route to VMN4.
	deadline := time.Now().Add(10 * time.Second)
	converged := false
	for time.Now().Before(deadline) {
		for _, e := range protos[1].Table() {
			if e.Dst == 4 {
				converged = true
			}
		}
		if converged {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !converged {
		t.Fatalf("no route 1→4; table: %v", protos[1].Table())
	}

	// 4. Multi-hop application traffic.
	const flow, n = 5, 20
	for seq := uint32(1); seq <= n; seq++ {
		if err := protos[1].SendData(4, flow, seq, []byte("e2e")); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		time.Sleep(time.Millisecond)
	}
	deadline = time.Now().Add(10 * time.Second)
	for len(protos[4].Deliveries()) < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	got := len(protos[4].Deliveries())
	if got < n*8/10 {
		t.Fatalf("delivered %d/%d over the 3-hop chain", got, n)
	}

	// 5. Live scene mutation through control: cut the chain at 2—3.
	if out := ctrl.Execute("move 3 to 240,400"); out != "ok" {
		t.Fatal(out)
	}
	// Routes to 3/4 must die within a few beacon TTLs.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		still := false
		for _, e := range protos[1].Table() {
			if e.Dst == 4 {
				still = true
			}
		}
		if !still {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, e := range protos[1].Table() {
		if e.Dst == 4 {
			t.Errorf("route to 4 survived the cut: %v", protos[1].Table())
		}
	}

	// 6. Operator inspection still works mid-run.
	if show := ctrl.Execute("show"); !strings.Contains(show, "1 @") {
		t.Errorf("show:\n%s", show)
	}
	if st := ctrl.Execute("stats"); !strings.Contains(st, "\npoem_received_total ") {
		t.Errorf("stats: %q", st)
	}
	if sess := ctrl.Execute("sessions"); strings.Count(sess, " received=") != 4 {
		t.Errorf("sessions: %q", sess)
	}

	// 7. Persistence round trip: save → load → analyze → replay.
	before := d.store.PacketCount()
	var buf bytes.Buffer
	if err := d.store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	after := d.store.PacketCount()
	loaded, err := record.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Recording continues during Save (beacons keep flowing); the
	// snapshot must hold a count from within the [before, after] span.
	if n := loaded.PacketCount(); n < before || n > after {
		t.Fatalf("snapshot count %d outside [%d, %d]", n, before, after)
	}
	rep := stats.AnalyzeFlowTo(loaded, flow, time.Second, 4)
	if rep.Delivered < n*8/10 {
		t.Errorf("reloaded stats disagree: delivered %d", rep.Delivered)
	}
	r := replay.New(loaded)
	out := r.Script(2*time.Second, 40, 8)
	if !strings.Contains(out, "activity:") || !strings.Contains(out, "nodes=4") {
		t.Errorf("replay script incomplete:\n%.400s", out)
	}
}

// TestScriptedRunOverTCP runs a scenario script against a TCP
// deployment while a client watches its own radios change live.
func TestScriptedRunOverTCP(t *testing.T) {
	d := deploy(t, 200)
	const src = `
region 0 0 400 400
at 0s add 1 pos 100,100 radio ch=1 range=150
at 0s add 2 pos 200,100 radio ch=1 range=150
at 1s radios 1 radio ch=2 range=150
at 2s radios 1 radio ch=1 range=150
at 3s end
`
	sp, err := script.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Apply the t=0 steps synchronously so the client can connect.
	for _, st := range sp.Steps[:2] {
		if err := st.Do(d.scene); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(chan radio.ChannelID, 16)
	c, err := core.Dial(core.ClientConfig{
		ID: 1, Dial: transport.TCPDialer(d.lis.Addr()), LocalClock: d.clk,
		OnRadios: func(rs []radio.Radio) {
			if len(rs) == 1 {
				seen <- rs[0].Channel
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Run the remaining timed steps.
	rest := *sp
	rest.Steps = sp.Steps[2:]
	if err := rest.Run(d.scene, d.clk, nil); err != nil {
		t.Fatal(err)
	}
	// The client must have observed ch1 (initial), ch2, then ch1 again.
	var order []radio.ChannelID
	deadline := time.After(5 * time.Second)
	for len(order) < 3 {
		select {
		case ch := <-seen:
			order = append(order, ch)
		case <-deadline:
			t.Fatalf("saw only %v", order)
		}
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 1 {
		t.Errorf("radio change order: %v", order)
	}
}

// TestManyClientsOverTCP stresses the deployment with 24 concurrent
// clients exchanging broadcasts — connection handling, clock sync and
// fan-out all over real sockets.
func TestManyClientsOverTCP(t *testing.T) {
	d := deploy(t, 100)
	const n = 24
	for i := 1; i <= n; i++ {
		if err := d.scene.AddNode(radio.NodeID(i),
			geom.V(float64(i%6)*50, float64(i/6)*50),
			[]radio.Radio{{Channel: 1, Range: 1000}}); err != nil {
			t.Fatal(err)
		}
	}
	recv := make(chan radio.NodeID, n*n)
	clients := make([]*core.Client, 0, n)
	for i := 1; i <= n; i++ {
		id := radio.NodeID(i)
		c, err := core.Dial(core.ClientConfig{
			ID: id, Dial: transport.TCPDialer(d.lis.Addr()), LocalClock: d.clk,
			OnPacket: func(p wire.Packet) { recv <- id },
		})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		t.Cleanup(c.Close)
		clients = append(clients, c)
	}
	// Every client broadcasts once; every other client must hear it.
	for _, c := range clients {
		if err := c.Broadcast(1, 1, []byte("hi")); err != nil {
			t.Fatal(err)
		}
	}
	want := n * (n - 1)
	gotCount := 0
	deadline := time.After(15 * time.Second)
	for gotCount < want {
		select {
		case <-recv:
			gotCount++
		case <-deadline:
			t.Fatalf("heard %d/%d broadcast deliveries", gotCount, want)
		}
	}
	// A writer counts its batch forwarded after the write returns, and
	// ingest counts a packet received once it is scheduled, so the last
	// client can hear its delivery a moment before the server has
	// counted either.
	st := d.srv.Stats()
	for end := time.Now().Add(5 * time.Second); (st.Forwarded < uint64(want) || st.Received < uint64(n)) && time.Now().Before(end); st = d.srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Received != uint64(n) || st.Forwarded != uint64(want) {
		t.Errorf("server stats: %+v", st)
	}
}
