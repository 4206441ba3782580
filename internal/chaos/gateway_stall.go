package chaos

// Gateway-backpressure scenario: the policy half of the clock-stall
// story. stall.go proves the fidelity monitor *notices* a scene that
// has lost real time; this scenario proves the real-traffic gateway
// (internal/gateway) *acts* on it — shedding ingress drop-newest while
// its shard is degraded or worse, and resuming cleanly once the
// hysteresis steps the health back down. The clock is a StallClock, so
// the whole degrade → shed → recover arc is deterministic and seeded.

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// GatewayStallConfig parameterizes one gateway-backpressure scenario.
// The zero value plus a seed is a sensible run.
type GatewayStallConfig struct {
	// Seed feeds the scene and names the run in failure reports.
	Seed int64
	// Clients is the plain broadcast population riding alongside the
	// gateway's node (default 6).
	Clients int
	// Packets is the storm piled behind the frozen clock (default 24).
	Packets int
	// Datagrams is the size of each probe burst pushed into the
	// gateway's real socket (default 8).
	Datagrams int
	// Scale is the inner clock's time compression (default 50).
	Scale float64
	// Stall is the wall-clock freeze duration (default 40ms).
	Stall time.Duration
	// RTTolerance / RTWindow configure the fidelity monitor (defaults
	// 500ms emulated / 32 deliveries). Unlike StallConfig's tight
	// tolerance, the default here is loose enough that only the stall's
	// leap (Scale×Stall ≈ 2s emulated) registers as misses — ordinary
	// scheduling noise must not trip the gate this scenario asserts on.
	RTTolerance time.Duration
	RTWindow    int
	// DisableBackpressure runs the A9 ablation: the same stall, but the
	// gateway keeps forwarding while degraded. The scenario then
	// asserts the opposite shed-probe outcome — every probe datagram is
	// accepted into the late scene and fans out as extra deliveries.
	DisableBackpressure bool
}

func (c GatewayStallConfig) withDefaults() GatewayStallConfig {
	if c.Clients <= 0 {
		c.Clients = 6
	}
	if c.Packets <= 0 {
		c.Packets = 24
	}
	if c.Datagrams <= 0 {
		c.Datagrams = 8
	}
	if c.Scale <= 0 {
		c.Scale = 50
	}
	if c.Stall <= 0 {
		c.Stall = 40 * time.Millisecond
	}
	if c.RTTolerance == 0 {
		c.RTTolerance = 500 * time.Millisecond
	}
	if c.RTWindow <= 0 {
		c.RTWindow = 32
	}
	return c
}

// GatewayStallReport is the outcome of one gateway-backpressure run.
type GatewayStallReport struct {
	Seed       int64
	PeakHealth string // worst health state the gate reacted to
	Shed       uint64 // datagrams the gate dropped while degraded
	// DegradedForwarded counts emulated deliveries caused by probe
	// datagrams pushed while degraded — 0 with the gate on, the probe's
	// full fan-out under the ablation.
	DegradedForwarded uint64
	Violations        []string
}

// OK reports whether the gateway behaved as the scenario demands.
func (r GatewayStallReport) OK() bool { return len(r.Violations) == 0 }

// Failure renders a failing run with its reproduction seed.
func (r GatewayStallReport) Failure() string {
	out := fmt.Sprintf("gateway-stall seed %d violated %d expectation(s):\n", r.Seed, len(r.Violations))
	for _, v := range r.Violations {
		out += "  ✗ " + v + "\n"
	}
	out += fmt.Sprintf("reproduce with:\n  go test ./internal/chaos -run TestGatewayBackpressure -count=1 -chaos.seed=%d\n", r.Seed)
	return out
}

// RunGatewayStall executes one gateway-backpressure scenario in three
// phases: (1) datagrams pushed into the gateway's real socket forward
// into the scene while healthy; (2) a clock stall piles a broadcast
// storm into the schedule, the leap drives the monitor to degraded or
// worse, and a second probe burst must be shed drop-newest — none of it
// reaching the emulation; (3) clean traffic on the running clock steps
// the hysteresis back to healthy, the gate reopens, a third burst
// forwards again, and the egress writer proves it never wedged by
// delivering a marker out the real socket. Conservation and the pooled
// buffer ledger must close exactly on teardown.
func RunGatewayStall(cfg GatewayStallConfig) GatewayStallReport {
	cfg = cfg.withDefaults()
	rep := GatewayStallReport{Seed: cfg.Seed}
	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	clk := NewStallClock(vclock.NewSystem(cfg.Scale))
	sc := scene.New(radio.NewIndexed(64), clk, cfg.Seed)
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Seed: cfg.Seed,
		Shards: 1, RTTolerance: cfg.RTTolerance, RTWindow: cfg.RTWindow,
		TickStep: 10 * time.Second,
	})
	if err != nil {
		fail("setup: %v", err)
		return rep
	}
	model, err := linkmodel.New(linkmodel.NoLoss{},
		linkmodel.ConstantBandwidth{Bps: 1e9},
		linkmodel.ConstantDelay{D: stallLinkDelay})
	if err != nil {
		fail("setup: %v", err)
		return rep
	}
	if err := sc.SetLinkModel(1, model); err != nil {
		fail("setup: %v", err)
		return rep
	}
	// Node 1 is the gateway's VMN; 2..Clients+1 are plain clients. A
	// tight cluster, so every broadcast reaches everyone else.
	for i := 1; i <= cfg.Clients+1; i++ {
		err := sc.AddNode(radio.NodeID(i), geom.V(float64(i)*5, 0),
			[]radio.Radio{{Channel: 1, Range: 1000}})
		if err != nil {
			fail("setup: add node %d: %v", i, err)
			return rep
		}
	}

	lis := transport.NewInprocListener()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-serveDone }()

	fid := srv.Fidelity()

	// The egress sink: the real socket the gateway's static peer points
	// at. A drain goroutine forwards every arriving payload for the
	// phase-3 marker check (and keeps the socket from backing up while
	// the storm fans out to the gateway's node).
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		fail("setup: sink socket: %v", err)
		return rep
	}
	defer sink.Close()
	sinkGot := make(chan []byte, 1024)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, _, err := sink.ReadFromUDP(buf)
			if err != nil {
				return
			}
			sinkGot <- append([]byte(nil), buf[:n]...)
		}
	}()

	gw, err := gateway.New(gateway.Config{
		Bindings: []gateway.Binding{{
			Listen: "127.0.0.1:0", Node: 1, Channel: 1,
			Dst: radio.Broadcast, Peer: sink.LocalAddr().String(),
		}},
		Dial: lis.Dialer(), LocalClock: clk, SyncRounds: 1,
		Monitor: fid, Shards: 1,
		DisableBackpressure: cfg.DisableBackpressure,
	})
	if err != nil {
		fail("setup: gateway: %v", err)
		return rep
	}
	defer gw.Close()

	var received atomic.Uint64
	clients := make([]*core.Client, cfg.Clients)
	for i := range clients {
		c, err := core.Dial(core.ClientConfig{
			ID: radio.NodeID(i + 2), Dial: lis.Dialer(),
			LocalClock: clk, SyncRounds: 1,
			OnPacket: func(p wire.Packet) { received.Add(1) },
		})
		if err != nil {
			fail("setup: dial client %d: %v", i+2, err)
			return rep
		}
		clients[i] = c
		defer c.Close()
	}

	// The probe socket pushing datagrams into the gateway's real port.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		fail("setup: probe socket: %v", err)
		return rep
	}
	defer probe.Close()
	gwAddr := gw.Addr(0)
	burst := func(tag string) bool {
		for k := 0; k < cfg.Datagrams; k++ {
			msg := fmt.Sprintf("%s-%03d", tag, k)
			if _, err := probe.WriteTo([]byte(msg), gwAddr); err != nil {
				fail("%s: probe write %d: %v", tag, k, err)
				return false
			}
		}
		return true
	}
	gwStat := func() gateway.LinkStats { return gw.Stats()[0] }
	// UDP gives no delivery receipt, so every burst is chased by a poll
	// on the gateway's own ingress counter before its verdict is read.
	ingressReaches := func(want uint64, what string) bool {
		if pollUntil(10*time.Second, func() bool { return gwStat().Ingress >= want }) {
			return true
		}
		fail("%s: gateway ingress %d of %d datagrams", what, gwStat().Ingress, want)
		return false
	}
	D := uint64(cfg.Datagrams)

	// Phase 1 — healthy: probe datagrams traverse socket → gateway →
	// scene → every plain client.
	if !burst("gw-warm") || !ingressReaches(D, "warmup") {
		return rep
	}
	wantReceived := D * uint64(cfg.Clients) // gateway broadcasts reach all plain clients
	if !pollUntil(10*time.Second, func() bool { return received.Load() >= wantReceived }) {
		fail("warmup: clients received %d of %d gateway deliveries (gw %+v)",
			received.Load(), wantReceived, gwStat())
		return rep
	}
	if st := gwStat(); st.Shed != 0 || st.Accepted != D {
		fail("warmup: gateway shed under healthy state: %+v", st)
	}
	if g := gw.Gate(0); g != fidelity.Healthy {
		fail("warmup: gate %v, want healthy", g)
	}

	// Phase 2 — stall, storm, leap: the monitor degrades and the gate
	// must shed the next burst drop-newest.
	if !syncStormSender(clients[0], clk) {
		fail("setup: sender clock %v behind the server after 64 resyncs", clk.Now().Sub(clients[0].Now()))
		return rep
	}
	clk.Stall()
	for k := 0; k < cfg.Packets; k++ {
		if err := clients[0].Broadcast(1, 2, []byte("storm-payload")); err != nil {
			fail("storm broadcast %d: %v", k, err)
			clk.Resume()
			return rep
		}
	}
	if !pollUntil(10*time.Second, func() bool {
		return srv.Stats().Received >= D+uint64(cfg.Packets)
	}) {
		fail("stall: server ingested %d of %d packets", srv.Stats().Received, D+uint64(cfg.Packets))
		clk.Resume()
		return rep
	}
	time.Sleep(cfg.Stall)
	clk.Resume()
	// The storm fans out to the plain clients (minus its sender) and to
	// the gateway's node, whose copies leave via the egress sink.
	wantReceived += uint64(cfg.Packets) * uint64(cfg.Clients-1)
	if !pollUntil(10*time.Second, func() bool { return received.Load() >= wantReceived }) {
		fail("post-stall: clients received %d of %d deliveries", received.Load(), wantReceived)
		return rep
	}
	if !pollUntil(10*time.Second, func() bool { return gw.Gate(0) >= fidelity.Degraded }) {
		fail("post-stall: gate %v after a %v stall at scale %g (monitor %v)",
			gw.Gate(0), cfg.Stall, cfg.Scale, fid.State())
		return rep
	}
	rep.PeakHealth = fid.State().String()
	preProbe := received.Load()
	if !burst("gw-shed") || !ingressReaches(2*D, "shed probe") {
		return rep
	}
	accepted := D // what the ingress ledger should show after the probe
	if cfg.DisableBackpressure {
		// The ablation: every probe datagram enters the late scene and
		// fans out to the plain clients anyway.
		accepted = 2 * D
		wantReceived += D * uint64(cfg.Clients)
		if !pollUntil(10*time.Second, func() bool { return received.Load() >= wantReceived }) {
			fail("ablation probe: clients received %d of %d deliveries", received.Load(), wantReceived)
			return rep
		}
	}
	st := gwStat()
	rep.Shed = st.Shed
	rep.DegradedForwarded = received.Load() - preProbe
	if want := 2*D - accepted; st.Shed != want {
		fail("shed probe: %d of %d datagrams shed while %s: %+v", st.Shed, want, rep.PeakHealth, st)
	}
	if st.Accepted != accepted {
		fail("shed probe: accepted %d, want %d while degraded: %+v", st.Accepted, accepted, st)
	}

	// Phase 3 — recovery: clean deliveries on the running clock close
	// clean windows, the hysteresis steps the state down to healthy, and
	// the gate reopens.
	recoverDeadline := time.Now().Add(15 * time.Second)
	for fid.State() != fidelity.Healthy || gw.Gate(0) != fidelity.Healthy {
		if time.Now().After(recoverDeadline) {
			fail("recovery: health %v / gate %v never stepped down to healthy", fid.State(), gw.Gate(0))
			return rep
		}
		for k := 0; k < 8; k++ {
			if err := clients[0].Broadcast(1, 3, []byte("recovery-payload")); err != nil {
				fail("recovery broadcast: %v", err)
				return rep
			}
		}
		wantReceived += 8 * uint64(cfg.Clients-1)
		if !pollUntil(10*time.Second, func() bool { return received.Load() >= wantReceived }) {
			fail("recovery: clients received %d of %d deliveries", received.Load(), wantReceived)
			return rep
		}
	}
	if !burst("gw-open") || !ingressReaches(3*D, "reopen probe") {
		return rep
	}
	if !pollUntil(10*time.Second, func() bool { return gwStat().Accepted >= accepted+D }) {
		fail("reopen probe: accepted %d, want %d — gate never reopened: %+v",
			gwStat().Accepted, accepted+D, gwStat())
		return rep
	}
	if got := gwStat().Shed; got != rep.Shed {
		fail("reopen probe: shed moved %d → %d after recovery", rep.Shed, got)
	}
	// The egress writer must have survived the whole arc: a marker
	// broadcast into the scene has to come out the gateway's real socket.
	marker := []byte("egress-liveness-marker")
	if err := clients[0].Broadcast(1, 4, marker); err != nil {
		fail("marker broadcast: %v", err)
		return rep
	}
	markerDeadline := time.After(10 * time.Second)
	for seen := false; !seen; {
		select {
		case p := <-sinkGot:
			seen = bytes.Equal(p, marker)
		case <-markerDeadline:
			fail("egress writer wedged: marker never reached the sink socket (gw %+v)", gwStat())
			return rep
		}
	}

	// Teardown verdict: the pipeline drains, conservation closes (the
	// shed bursts never entered, so they owe the ledger nothing), and
	// the gateway returns every pooled buffer.
	if !srv.Quiesce(10 * time.Second) {
		fail("teardown: pipeline did not quiesce: %+v", srv.Stats())
		return rep
	}
	sstat := srv.Stats()
	if sstat.Entered != sstat.Forwarded+sstat.QueueDrops+sstat.Abandoned {
		fail("conservation: %+v", sstat)
	}
	gw.Close()
	if live := gw.Pool().Live(); live != 0 {
		fail("teardown: %d pooled gateway buffers leaked", live)
	}
	return rep
}
