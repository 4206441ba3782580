package core

import (
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// flagShards forces every rig-built server onto a fixed shard count, so
// CI can run the whole package suite against a sharded core
// (go test ./internal/core -shards=4). Zero keeps ServerConfig's own
// default (min(GOMAXPROCS, 8)); tests that pin Shards explicitly — the
// shard-count matrix below — override it either way.
var flagShards = flag.Int("shards", 0,
	"force rig servers onto this many core shards (0 = ServerConfig default)")

// forEachShardCount is the shard-count test matrix: it runs the test
// body at one shard (the pre-sharding ablation baseline, exact legacy
// behavior) and at four shards (cross-shard routing exercised even for
// small node sets). The pipeline invariants under test must hold
// unchanged at every count.
func forEachShardCount(t *testing.T, f func(t *testing.T, shards int)) {
	for _, n := range []int{1, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// rig is a running server plus helpers to attach clients.
type rig struct {
	t      *testing.T
	clk    vclock.WaitClock
	scene  *scene.Scene
	store  *record.Store
	server *Server
	lis    *transport.InprocListener
	done   chan struct{}
}

func newRig(t *testing.T, mutate func(*ServerConfig)) *rig {
	t.Helper()
	clk := vclock.NewSystem(50) // compressed time: 20ms wall = 1s emulated
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	st := record.NewStore()
	cfg := ServerConfig{Clock: clk, Scene: sc, Store: st, Seed: 7, Shards: *flagShards}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis := transport.NewInprocListener()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	r := &rig{t: t, clk: clk, scene: sc, store: st, server: srv, lis: lis, done: done}
	t.Cleanup(func() {
		lis.Close()
		srv.Close()
		<-done
	})
	return r
}

// settle waits until the server has counted received packets in and
// forwarded deliveries out, and returns that snapshot. Both counters
// commit after the packet is on the wire (ingest counts it received
// last, the writer counts a batch forwarded once sent), so a client can
// hold a delivery a moment before the server has counted it.
func (r *rig) settle(t *testing.T, received, forwarded uint64) ServerStats {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := r.server.Stats()
		if st.Received >= received && st.Forwarded >= forwarded {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never counted %d received + %d forwarded: %+v", received, forwarded, st)
		}
	}
}

// sink collects packets delivered to a client.
type sink struct {
	mu   sync.Mutex
	pkts []wire.Packet
	ch   chan wire.Packet
}

func newSink() *sink { return &sink{ch: make(chan wire.Packet, 1024)} }

func (s *sink) on(p wire.Packet) {
	p.Payload = append([]byte(nil), p.Payload...) // valid only during the callback
	s.mu.Lock()
	s.pkts = append(s.pkts, p)
	s.mu.Unlock()
	select {
	case s.ch <- p:
	default:
	}
}

func (s *sink) wait(t *testing.T, d time.Duration) wire.Packet {
	t.Helper()
	select {
	case p := <-s.ch:
		return p
	case <-time.After(d):
		t.Fatal("no packet arrived")
		return wire.Packet{}
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pkts)
}

func (r *rig) client(id radio.NodeID, sk *sink) *Client {
	r.t.Helper()
	cfg := ClientConfig{ID: id, Dial: r.lis.Dialer(), LocalClock: r.clk}
	if sk != nil {
		cfg.OnPacket = sk.on
	}
	c, err := Dial(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(c.Close)
	return c
}

func oneRadio(ch radio.ChannelID, rng float64) []radio.Radio {
	return []radio.Radio{{Channel: ch, Range: rng}}
}

func TestUnicastDelivery(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(100, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	if err := c1.SendTo(2, 1, 0, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p := sk.wait(t, 5*time.Second)
	if p.Src != 1 || p.Dst != 2 || string(p.Payload) != "ping" {
		t.Errorf("got %+v", p)
	}
	if p.Stamp == 0 {
		t.Error("packet not stamped")
	}
	st := r.server.Stats()
	if st.Received != 1 || st.Forwarded != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 50))
	r.scene.AddNode(2, geom.V(500, 0), oneRadio(1, 50))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	c1.SendTo(2, 1, 0, []byte("lost"))
	time.Sleep(100 * time.Millisecond)
	if sk.count() != 0 {
		t.Error("out-of-range packet delivered")
	}
	if st := r.server.Stats(); st.NoRoute != 1 {
		t.Errorf("NoRoute = %d", st.NoRoute)
	}
}

func TestChannelIsolation(t *testing.T) {
	// Table 2 step 3: same position, different channels → no link.
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 500))
	r.scene.AddNode(2, geom.V(10, 0), oneRadio(2, 500))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	c1.SendTo(2, 1, 0, []byte("wrong channel"))
	time.Sleep(100 * time.Millisecond)
	if sk.count() != 0 {
		t.Error("cross-channel delivery")
	}
	// Retune node 2 onto channel 1 live — delivery works.
	r.scene.SetRadios(2, oneRadio(1, 500))
	c1.SendTo(2, 1, 0, []byte("now"))
	p := sk.wait(t, 5*time.Second)
	if string(p.Payload) != "now" {
		t.Errorf("got %+v", p)
	}
}

func TestBroadcastFanout(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 300))
	sinks := map[radio.NodeID]*sink{}
	for id := radio.NodeID(2); id <= 4; id++ {
		r.scene.AddNode(id, geom.V(float64(id)*50, 0), oneRadio(1, 300))
		sk := newSink()
		sinks[id] = sk
		r.client(id, sk)
	}
	// Node 5 is out of range.
	r.scene.AddNode(5, geom.V(5000, 0), oneRadio(1, 300))
	sk5 := newSink()
	r.client(5, sk5)
	c1 := r.client(1, nil)
	c1.Broadcast(1, 0, []byte("hello all"))
	for id, sk := range sinks {
		p := sk.wait(t, 5*time.Second)
		if p.Dst != radio.Broadcast || p.Src != 1 {
			t.Errorf("node %v got %+v", id, p)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if sk5.count() != 0 {
		t.Error("out-of-range node heard the broadcast")
	}
}

func TestLossModelDropsStatistically(t *testing.T) {
	r := newRig(t, nil)
	lossy := linkmodel.Model{
		Loss:      linkmodel.ConstantLoss{P: 0.5},
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e9},
		Delay:     linkmodel.ConstantDelay{},
	}
	if err := r.scene.SetLinkModel(1, lossy); err != nil {
		t.Fatal(err)
	}
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	const n = 400
	for i := 0; i < n; i++ {
		c1.SendTo(2, 1, 1, []byte("x"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.server.Stats().Dropped+uint64(sk.count()) < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	got := sk.count()
	if got < n/4 || got > 3*n/4 {
		t.Errorf("delivered %d/%d with P=0.5", got, n)
	}
	if st := r.server.Stats(); st.Dropped == 0 {
		t.Error("no drops recorded")
	}
}

func TestForwardDelayRespected(t *testing.T) {
	r := newRig(t, nil)
	slow := linkmodel.Model{
		Loss:      linkmodel.NoLoss{},
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e9},
		Delay:     linkmodel.ConstantDelay{D: 2 * time.Second}, // emulated
	}
	r.scene.SetLinkModel(1, slow)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	c2 := r.client(2, sk)
	sendAt := c1.Now()
	c1.SendTo(2, 1, 0, []byte("delayed"))
	p := sk.wait(t, 5*time.Second)
	arriveAt := c2.Now()
	if lat := arriveAt.Sub(sendAt); lat < 1900*time.Millisecond {
		t.Errorf("latency %v, want ≥ ~2s emulated", lat)
	}
	if p.Stamp.Sub(sendAt) > 100*time.Millisecond {
		t.Errorf("stamp drifted: %v vs %v", p.Stamp, sendAt)
	}
}

func TestMultiRadioRelayScenario(t *testing.T) {
	// The Figure 9 topology: VMN1(ch1) → VMN2(ch1+ch2) → VMN3(ch2),
	// receiver outside the sender's radio range.
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(120, 0), []radio.Radio{
		{Channel: 1, Range: 200}, {Channel: 2, Range: 200},
	})
	r.scene.AddNode(3, geom.V(240, 0), oneRadio(2, 200))
	sk2 := newSink()
	sk3 := newSink()
	c1 := r.client(1, nil)
	c2 := r.client(2, sk2)
	r.client(3, sk3)
	// VMN1 cannot reach VMN3 directly (different channel AND range).
	c1.SendTo(3, 1, 1, []byte("direct?"))
	time.Sleep(100 * time.Millisecond)
	if sk3.count() != 0 {
		t.Fatal("impossible direct delivery")
	}
	// Relay: VMN2 hears VMN1 on ch1 and re-sends on ch2.
	c1.SendTo(2, 1, 1, []byte("via relay"))
	relayed := sk2.wait(t, 5*time.Second)
	fwd := relayed
	fwd.Dst = 3
	fwd.Channel = 2
	if err := c2.Send(fwd); err != nil {
		t.Fatal(err)
	}
	got := sk3.wait(t, 5*time.Second)
	if string(got.Payload) != "via relay" {
		t.Errorf("relay delivery: %+v", got)
	}
	if got.Src != 2 {
		t.Errorf("relay Src = %v (clients cannot spoof)", got.Src)
	}
}

func TestClockSyncAccuracy(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	// The client's local clock is offset by 3s from the server's: the
	// sync must cancel it.
	skewed := vclock.Offset{Base: r.clk, Shift: -3 * time.Second}
	c, err := Dial(ClientConfig{ID: 1, Dial: r.lis.Dialer(), LocalClock: skewed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err1 := c.Now().Sub(r.clk.Now())
	if err1 < 0 {
		err1 = -err1
	}
	// Inproc transport is fast; the estimate should land within tens of
	// emulated milliseconds (50x compression amplifies wall jitter).
	if err1 > 500*time.Millisecond {
		t.Errorf("post-sync clock error %v", err1)
	}
	if off := c.Offset(); off < 2*time.Second || off > 4*time.Second {
		t.Errorf("offset estimate %v, want ≈3s", off)
	}
}

func TestRecordingCapturesEverything(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	c1.SendTo(2, 1, 5, []byte("for the record"))
	sk.wait(t, 5*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for r.store.PacketCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var ins, outs []record.Packet
	r.store.ForEachPacket(func(p record.Packet) {
		switch p.Kind {
		case record.PacketIn:
			ins = append(ins, p)
		case record.PacketOut:
			outs = append(outs, p)
		}
	})
	if len(ins) != 1 || len(outs) != 1 {
		t.Fatalf("records: %d in, %d out", len(ins), len(outs))
	}
	if ins[0].Flow != 5 || outs[0].Relay != 2 {
		t.Errorf("record contents: %+v %+v", ins[0], outs[0])
	}
	// Scene events were recorded too (two AddNode calls).
	if r.store.SceneCount() < 2 {
		t.Errorf("scene records: %d", r.store.SceneCount())
	}
}

func TestRejectUnknownVMN(t *testing.T) {
	r := newRig(t, nil)
	_, err := Dial(ClientConfig{ID: 99, Dial: r.lis.Dialer(), LocalClock: r.clk})
	if err == nil {
		t.Fatal("unknown VMN accepted")
	}
}

func TestAutoCreateNodes(t *testing.T) {
	r := newRig(t, func(c *ServerConfig) { c.AutoCreateNodes = true })
	c, err := Dial(ClientConfig{ID: 42, Dial: r.lis.Dialer(), LocalClock: r.clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !r.scene.HasNode(42) {
		t.Error("node not auto-created")
	}
}

func TestRejectDuplicateVMN(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	r.client(1, nil)
	if _, err := Dial(ClientConfig{ID: 1, Dial: r.lis.Dialer(), LocalClock: r.clk}); err == nil {
		t.Fatal("duplicate VMN accepted")
	}
}

func TestClientLearnsRadios(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 3, Range: 150}})
	var mu sync.Mutex
	var last []radio.Radio
	c, err := Dial(ClientConfig{
		ID: 1, Dial: r.lis.Dialer(), LocalClock: r.clk,
		OnRadios: func(rs []radio.Radio) {
			mu.Lock()
			last = rs
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rs := c.Radios(); len(rs) == 1 && rs[0].Channel == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rs := c.Radios(); len(rs) != 1 || rs[0].Channel != 3 {
		t.Fatalf("initial radios not learned: %v", rs)
	}
	if chs := c.Channels(); len(chs) != 1 || chs[0] != 3 {
		t.Errorf("Channels = %v", chs)
	}
	// Live channel switch pushed from the server (Table 2 step 3 path).
	r.scene.SetRadios(1, []radio.Radio{{Channel: 7, Range: 150}})
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rs := c.Radios(); len(rs) == 1 && rs[0].Channel == 7 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rs := c.Radios(); len(rs) != 1 || rs[0].Channel != 7 {
		t.Fatalf("radio switch not learned: %v", rs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(last) != 1 || last[0].Channel != 7 {
		t.Errorf("OnRadios last = %v", last)
	}
}

func TestClientDisconnectMidFlight(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	slow := linkmodel.Model{
		Loss:      linkmodel.NoLoss{},
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e9},
		Delay:     linkmodel.ConstantDelay{D: 3 * time.Second},
	}
	r.scene.SetLinkModel(1, slow)
	c1 := r.client(1, nil)
	sk := newSink()
	c2 := r.client(2, sk)
	c1.SendTo(2, 1, 0, []byte("you'll miss it"))
	time.Sleep(10 * time.Millisecond)
	c2.Close() // receiver leaves while the packet is in the schedule
	time.Sleep(200 * time.Millisecond)
	// The server must survive delivering to a gone client.
	if st := r.server.Stats(); st.Clients != 1 {
		t.Errorf("Clients = %d", st.Clients)
	}
	r.scene.AddNode(9, geom.V(10, 0), oneRadio(1, 200))
	c9 := r.client(9, nil)
	if err := c9.SendTo(1, 1, 0, []byte("still alive?")); err != nil {
		t.Errorf("server wedged after mid-flight disconnect: %v", err)
	}
}

func TestServerOverTCP(t *testing.T) {
	clk := vclock.NewSystem(50)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	sc.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-done }()

	sk := newSink()
	c1, err := Dial(ClientConfig{ID: 1, Dial: transport.TCPDialer(lis.Addr()), LocalClock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(ClientConfig{ID: 2, Dial: transport.TCPDialer(lis.Addr()), LocalClock: clk, OnPacket: sk.on})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.SendTo(2, 1, 0, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	p := sk.wait(t, 5*time.Second)
	if string(p.Payload) != "over tcp" {
		t.Errorf("got %+v", p)
	}
}

func TestMobilityBreaksLinkLive(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 100))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	c1.SendTo(2, 1, 0, []byte("near"))
	sk.wait(t, 5*time.Second)
	// Drag node 2 away (real-time scene construction).
	r.scene.MoveNode(2, geom.V(1000, 0))
	c1.SendTo(2, 1, 0, []byte("far"))
	time.Sleep(100 * time.Millisecond)
	if sk.count() != 1 {
		t.Error("delivery after link broke")
	}
}

func TestSessionStats(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	for i := 0; i < 3; i++ {
		c1.SendTo(2, 1, 0, []byte("x"))
		sk.wait(t, 5*time.Second)
	}
	// The counters commit after the packet is on the wire (ingest counts
	// a packet received last, the writer counts a batch forwarded once
	// sent), so the client can hold the third packet a moment before the
	// server has counted it: wait for the counts rather than sample once.
	var stats []SessionStat
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		stats = r.server.SessionStats()
		if len(stats) != 2 {
			t.Fatalf("sessions: %+v", stats)
		}
		if (stats[0].Received == 3 && stats[1].Forwarded == 3) || time.Now().After(deadline) {
			break
		}
	}
	if stats[0].ID != 1 || stats[0].Received != 3 || stats[0].Forwarded != 0 {
		t.Errorf("session 1: %+v", stats[0])
	}
	if stats[1].ID != 2 || stats[1].Received != 0 || stats[1].Forwarded != 3 {
		t.Errorf("session 2: %+v", stats[1])
	}
}
