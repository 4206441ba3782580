package chaos

// Gateway-backpressure scenario: the policy half of the clock-stall
// story. stall.go proves the fidelity monitor *notices* a scene that
// has lost real time; this scenario proves the real-traffic gateway
// (internal/gateway) *acts* on it — shedding ingress drop-newest while
// its shard is degraded or worse, and resuming cleanly once the
// hysteresis steps the health back down. The clock is a vclock.StallClock, so
// the whole degrade → shed → recover arc is deterministic and seeded.

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// GatewayStallConfig parameterizes one gateway-backpressure scenario.
// The zero value plus a seed is a sensible run.
type GatewayStallConfig struct {
	// Seed feeds the scene and names the run in failure reports.
	Seed int64
	// DisableBackpressure runs the A9 ablation: the same stall, but the
	// gateway keeps forwarding while degraded. The scenario then
	// asserts the opposite shed-probe outcome — every probe datagram is
	// accepted into the late scene and fans out as extra deliveries.
	DisableBackpressure bool
}

// The gateway scenario's own shape: gwClients plain broadcast clients
// ride alongside the gateway's node, each probe burst pushes gwDatagrams
// into its real socket, and the monitor's tolerance is loose enough that
// only the stall's leap (stallScale×stallHold ≈ 2s emulated) registers
// as misses — ordinary scheduling noise must not trip the gate this
// scenario asserts on.
const (
	gwClients   = 6
	gwDatagrams = 8
	gwTolerance = 500 * time.Millisecond
)

// GatewayStallReport is the outcome of one gateway-backpressure run.
type GatewayStallReport struct {
	Outcome
	PeakHealth string // worst health state the gate reacted to
	Shed       uint64 // datagrams the gate dropped while degraded
	// DegradedForwarded counts emulated deliveries caused by probe
	// datagrams pushed while degraded — 0 with the gate on, the probe's
	// full fan-out under the ablation.
	DegradedForwarded uint64
}

// Failure renders a failing run with its reproduction seed.
func (r GatewayStallReport) Failure() string {
	return r.failure("gateway-stall", "TestGatewayBackpressure")
}

// RunGatewayStall executes one gateway-backpressure scenario in three
// phases: (1) datagrams pushed into the gateway's real socket forward
// into the scene while healthy; (2) a clock stall piles a broadcast
// storm into the schedule, the leap drives the monitor to degraded or
// worse, and a second probe burst must be shed drop-newest — none of it
// reaching the emulation; (3) clean traffic on the running clock steps
// the hysteresis back to healthy, the gate reopens, a third burst
// forwards again, and the egress writer proves it never wedged by
// delivering a marker out the real socket. The world settles at every
// phase boundary with the gateway's own counts as its in/out terms, and
// the gateway allocates from the world's leak-checked pool.
func RunGatewayStall(cfg GatewayStallConfig) (rep GatewayStallReport) {
	rep = GatewayStallReport{Outcome: Outcome{Seed: cfg.Seed}}
	clk := vclock.NewStallClock(vclock.NewSystem(stallScale))
	w, err := newWorld(cfg.Seed, clk, 0, 64, core.ServerConfig{
		Shards: 1, RTTolerance: gwTolerance, RTWindow: stallWindow,
		TickStep: 10 * time.Second,
	})
	if err != nil {
		rep.Violations = []string{fmt.Sprintf("setup: %v", err)}
		return rep
	}
	defer func() { rep.Outcome = w.close() }()
	// Nodes 1..gwClients are plain clients; the gateway's VMN joins the
	// tight cluster as gwClients+1, so every broadcast reaches everyone
	// else.
	if err := w.tightCluster(gwClients, stallLinkDelay); err != nil {
		w.violationf("setup: %v", err)
		return rep
	}
	gwNode := radio.NodeID(gwClients + 1)
	err = w.peers[0].sc.AddNode(gwNode, geom.V(float64(gwNode)*5, 0), []radio.Radio{{Channel: 1, Range: 1000}})
	if err != nil {
		w.violationf("setup: add gateway node: %v", err)
		return rep
	}
	srv, sender := w.peers[0].srv, w.clients[0].current().c
	fid := srv.Fidelity()

	// The egress sink: the real socket the gateway's static peer points
	// at. A drain goroutine keeps the socket from backing up while the
	// storm fans out to the gateway's node, and flags the phase-3 marker.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		w.violationf("setup: sink socket: %v", err)
		return rep
	}
	defer sink.Close()
	marker := []byte("egress-liveness-marker")
	markerSeen := make(chan struct{}, 1)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, _, err := sink.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if bytes.Equal(buf[:n], marker) {
				select {
				case markerSeen <- struct{}{}:
				default:
				}
			}
		}
	}()

	gw, err := gateway.New(gateway.Config{
		Bindings: []gateway.Binding{{
			Listen: "127.0.0.1:0", Node: gwNode, Channel: 1,
			Dst: radio.Broadcast, Peer: sink.LocalAddr().String(),
		}},
		Dial: w.peers[0].lis.Dialer(), LocalClock: clk, SyncRounds: 1,
		Pool: w.pool, Monitor: fid, Shards: 1,
		DisableBackpressure: cfg.DisableBackpressure,
	})
	if err != nil {
		w.violationf("setup: gateway: %v", err)
		return rep
	}
	defer gw.Close()
	// The gateway is an endpoint the world did not dial: its own link
	// ledger supplies what it put into the server and what it was handed.
	gwStat := func() gateway.LinkStats { return gw.Stats()[0] }
	w.extraWired = func() uint64 { return gwStat().Accepted }
	w.extraSunk = func() uint64 { return gwStat().Delivered }

	// The probe socket pushing datagrams into the gateway's real port.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		w.violationf("setup: probe socket: %v", err)
		return rep
	}
	defer probe.Close()
	const D = gwDatagrams
	var pushed uint64
	// UDP gives no delivery receipt, so every burst is chased by a poll
	// until the gateway has decided each datagram's fate — decided, not
	// merely read: Ingress counts a datagram before Accepted or Shed does,
	// and the verdicts below read those.
	burst := func(tag string) bool {
		for k := 0; k < D; k++ {
			msg := fmt.Sprintf("%s-%03d", tag, k)
			if _, err := probe.WriteTo([]byte(msg), gw.Addr(0)); err != nil {
				w.violationf("%s: probe write %d: %v", tag, k, err)
				return false
			}
		}
		pushed += D
		decided := func() uint64 {
			st := gwStat()
			return st.Accepted + st.Shed + st.SendErr + st.BadFrame + st.Oversize
		}
		if !pollUntil(settleTimeout, func() bool { return decided() >= pushed }) {
			w.violationf("%s: gateway decided %d of %d datagrams: %+v", tag, decided(), pushed, gwStat())
			return false
		}
		return true
	}
	const fanout = D * gwClients // a probe burst's broadcasts reach every plain client

	// Phase 1 — healthy: probe datagrams traverse socket → gateway →
	// scene → every plain client.
	if !burst("gw-warm") {
		return rep
	}
	w.settle("warmup")
	if got := srv.Stats().Forwarded; got != fanout {
		w.violationf("warmup: %d of %d gateway deliveries forwarded (gw %+v)", got, fanout, gwStat())
	}
	if st := gwStat(); st.Shed != 0 || st.Accepted != D {
		w.violationf("warmup: gateway shed under healthy state: %+v", st)
	}
	if g := gw.Gate(0); g != fidelity.Healthy {
		w.violationf("warmup: gate %v, want healthy", g)
	}

	// Phase 2 — stall, storm, leap: the monitor degrades and the gate
	// must shed the next burst drop-newest.
	if !w.stallStorm(clk, sender, 2) {
		return rep
	}
	w.settle("post-stall")
	if !pollUntil(settleTimeout, func() bool { return gw.Gate(0) >= fidelity.Degraded }) {
		w.violationf("post-stall: gate %v after a %v stall at scale %g (monitor %v)",
			gw.Gate(0), stallHold, float64(stallScale), fid.State())
		return rep
	}
	rep.PeakHealth = fid.State().String()
	preProbe := srv.Stats().Forwarded
	if !burst("gw-shed") {
		return rep
	}
	w.settle("shed probe")
	accepted, wantForwarded := uint64(D), uint64(0) // the ingress ledger after the probe
	if cfg.DisableBackpressure {
		// The ablation: every probe datagram enters the late scene and
		// fans out to the plain clients anyway.
		accepted, wantForwarded = 2*D, fanout
	}
	st := gwStat()
	rep.Shed = st.Shed
	rep.DegradedForwarded = srv.Stats().Forwarded - preProbe
	if want := 2*D - accepted; st.Shed != want {
		w.violationf("shed probe: %d of %d datagrams shed while %s: %+v", st.Shed, want, rep.PeakHealth, st)
	}
	if st.Accepted != accepted {
		w.violationf("shed probe: accepted %d, want %d while degraded: %+v", st.Accepted, accepted, st)
	}
	if rep.DegradedForwarded != wantForwarded {
		w.violationf("shed probe: %d deliveries forwarded while degraded, want %d", rep.DegradedForwarded, wantForwarded)
	}

	// Phase 3 — recovery: clean deliveries on the running clock close
	// clean windows, the hysteresis steps the state down to healthy, and
	// the gate reopens.
	recoverDeadline := time.Now().Add(15 * time.Second)
	for fid.State() != fidelity.Healthy || gw.Gate(0) != fidelity.Healthy {
		if time.Now().After(recoverDeadline) {
			w.violationf("recovery: health %v / gate %v never stepped down to healthy", fid.State(), gw.Gate(0))
			return rep
		}
		for k := 0; k < 8; k++ {
			if err := sender.Broadcast(1, 3, []byte("recovery-payload")); err != nil {
				w.violationf("recovery broadcast: %v", err)
				return rep
			}
		}
		w.settle("recovery")
	}
	if !burst("gw-open") {
		return rep
	}
	if st := gwStat(); st.Accepted != accepted+D || st.Shed != rep.Shed {
		w.violationf("reopen probe: accepted %d (want %d), shed %d → %d — gate never reopened: %+v",
			st.Accepted, accepted+D, rep.Shed, st.Shed, st)
	}
	// The egress writer must have survived the whole arc: a marker
	// broadcast into the scene has to come out the gateway's real socket.
	if err := sender.Broadcast(1, 4, marker); err != nil {
		w.violationf("marker broadcast: %v", err)
		return rep
	}
	select {
	case <-markerSeen:
	case <-time.After(settleTimeout):
		w.violationf("egress writer wedged: marker never reached the sink socket (gw %+v)", gwStat())
	}
	// The shed bursts never entered, so they owe the ledger nothing.
	w.settle("final")
	return rep
}
