package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// probeGateway measures the real-traffic UDP gateway as a standalone
// poem-gateway would run: one TCP server, gateway.New with two bindings
// and no health feed, and a closed loop of 64 datagrams of 256 B in
// flight from a real socket through VMN 1 → VMN 2 and out to another
// real socket. It is a probe and not an end-to-end workload because a
// shared host's kernel buffers drop UDP by chance (see README,
// Findings): later arrivals move the window past a lost datagram, and
// the loss shows in the counters, not as a failed run.
func probeGateway(res *passResult, t timing) error {
	const (
		window  = 64
		size    = 256
		reclaim = 200 * time.Millisecond
	)
	delay := time.Millisecond
	clk := vclock.NewSystem(1)
	sc := scene.New(radio.NewIndexed(radioRange), clk, 1)
	model, err := linkmodel.New(linkmodel.NoLoss{}, linkmodel.ConstantBandwidth{Bps: 1e9}, linkmodel.ConstantDelay{D: delay})
	if err != nil {
		return err
	}
	if err := sc.SetLinkModel(channel, model); err != nil {
		return err
	}
	for i, pos := range []geom.Vec2{geom.V(0, 0), geom.V(10, 0)} {
		if err := sc.AddNode(radio.NodeID(i+1), pos, []radio.Radio{{Channel: channel, Range: radioRange}}); err != nil {
			return err
		}
	}
	srv, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc, Seed: 1})
	if err != nil {
		return err
	}
	pool := mbuf.NewPool()
	lis, err := transport.ListenTCPWithPool("127.0.0.1:0", pool)
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-served }()

	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	sockB, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return err
	}
	defer sockB.Close()
	sockA, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return err
	}
	defer sockA.Close()
	gw, err := gateway.New(gateway.Config{
		Bindings: []gateway.Binding{
			{Listen: "127.0.0.1:0", Node: 1, Channel: channel, Dst: 2, Flow: 1},
			{Listen: "127.0.0.1:0", Node: 2, Channel: channel, Dst: 1, Flow: 1, Peer: sockB.LocalAddr().String()},
		},
		Dial: transport.TCPDialer(lis.Addr()), LocalClock: clk, Obs: srv.Obs(),
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	ingress, ok := gw.Addr(0).(*net.UDPAddr)
	if !ok {
		return fmt.Errorf("gateway probe: ingress address is %T", gw.Addr(0))
	}
	dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(ingress.Port))

	var heard atomic.Uint32
	win := newFlowWindow(window, []*atomic.Uint32{&heard}, nil)
	var late hist
	var got atomic.Uint64
	linkNs := int64(delay) + int64(float64(packetHeader+size)*8/1e9*1e9)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, 2048)
		for {
			n, _, err := sockB.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n < payloadHeader {
				continue
			}
			late.observe(int64(clk.Now()) - int64(binary.LittleEndian.Uint64(buf)) - linkNs)
			got.Add(1)
			if seq := uint32(binary.LittleEndian.Uint64(buf[8:])); seq > heard.Load() {
				heard.Store(seq)
			}
		}
	}()

	stop := make(chan struct{})
	time.AfterFunc(t.Gateway, func() { close(stop) })
	buf := make([]byte, size)
	cpu0 := cpuTime()
	var sent uint32
	for win.acquire(sent+1, reclaim, stop) {
		sent++
		putHeader(buf, int64(clk.Now()), sent)
		if _, err := sockA.WriteToUDPAddrPort(buf, dst); err != nil {
			return err
		}
	}
	// Let the last window land before reading the ledgers.
	waitFor(reclaim, func() bool { return got.Load() >= uint64(sent) })
	srv.Quiesce(time.Second)
	cpu := cpuTime() - cpu0
	sockB.SetReadDeadline(time.Now())
	<-readerDone

	mt := res.Metrics
	for _, ls := range gw.Stats() {
		mt["gateway.accepted"] += float64(ls.Accepted)
		mt["gateway.shed"] += float64(ls.Shed)
		mt["gateway.egress_dropped"] += float64(ls.EgressDropped)
		mt["gateway.late"] += float64(ls.Late)
	}
	mt["gateway.cpu_us_per_datagram"] = ratio(float64(cpu.Microseconds()), float64(got.Load()))
	mt["gateway.lateness_p50_us"] = late.snapshot().quantile(0.5) / 1e3
	res.check("gateway_probe_delivered", got.Load() > 0, "no datagram crossed the gateway (sent %d)", sent)
	return nil
}
