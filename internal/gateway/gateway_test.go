package gateway

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestParsePortMap(t *testing.T) {
	src := `
# ingress side
map listen=127.0.0.1:9000 node=1 ch=1 dst=3 flow=7
map listen=:9001 node=3 ch=2 peer=127.0.0.1:9100 framed
map listen=127.0.0.1:9002 node=4 ch=1 dst=broadcast
`
	bs, err := ParsePortMap(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []Binding{
		{Listen: "127.0.0.1:9000", Node: 1, Channel: 1, Dst: 3, Flow: 7},
		{Listen: ":9001", Node: 3, Channel: 2, Dst: radio.Broadcast, Peer: "127.0.0.1:9100", Framed: true},
		{Listen: "127.0.0.1:9002", Node: 4, Channel: 1, Dst: radio.Broadcast},
	}
	if len(bs) != len(want) {
		t.Fatalf("parsed %d bindings, want %d", len(bs), len(want))
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Errorf("binding %d: %+v, want %+v", i, bs[i], want[i])
		}
	}
}

func TestParsePortMapErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown directive", "bind listen=:1 node=1 ch=1"},
		{"unknown key", "map listen=:1 node=1 ch=1 color=red"},
		{"missing listen", "map node=1 ch=1"},
		{"missing node", "map listen=:1 ch=1"},
		{"missing ch", "map listen=:1 node=1"},
		{"broadcast node", "map listen=:1 node=broadcast ch=1"},
		{"bad node", "map listen=:1 node=zebra ch=1"},
		{"duplicate key", "map listen=:1 listen=:2 node=1 ch=1"},
		{"framed with value", "map listen=:1 node=1 ch=1 framed=yes"},
		{"duplicate node", "map listen=:1 node=1 ch=1\nmap listen=:2 node=1 ch=1"},
		{"empty", "# nothing\n"},
	}
	for _, tc := range cases {
		if _, err := ParsePortMap(strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	hdr := AppendHeader(nil, 77, 3, 9)
	if len(hdr) != HeaderSize {
		t.Fatalf("header size %d, want %d", len(hdr), HeaderSize)
	}
	datagram := append(hdr, []byte("payload-bytes")...)
	node, ch, flow, payload, err := parseHeader(datagram)
	if err != nil {
		t.Fatal(err)
	}
	if node != 77 || ch != 3 || flow != 9 || string(payload) != "payload-bytes" {
		t.Errorf("parsed (%d,%d,%d,%q)", node, ch, flow, payload)
	}
	if _, _, _, _, err := parseHeader(datagram[:HeaderSize-1]); err == nil {
		t.Error("short datagram parsed")
	}
	datagram[0] ^= 0xFF
	if _, _, _, _, err := parseHeader(datagram); err == nil {
		t.Error("bad magic parsed")
	}
}

// TestEgressQueueDropOldest fills a link's egress queue to its depth and
// pushes once more: the oldest entry is evicted. Depth 3 is not a power
// of two, so the ring's storage rounds up to 4 slots; the queue must
// still evict at its third entry.
func TestEgressQueueDropOldest(t *testing.T) {
	for _, depth := range []int{2, 3} {
		g := newGateway(Config{Bindings: []Binding{{Listen: "x", Node: 1, Channel: 1}}, EgressDepth: depth})
		q := g.links[0].out
		mk := func(tag byte) egressEntry {
			b := g.pool.Alloc(1)
			b.Bytes()[0] = tag
			return egressEntry{buf: b, at: time.Now()}
		}
		last := byte(depth + 1)
		for tag := byte(1); tag < last; tag++ {
			if ev, ok := q.push(mk(tag)); !ok || ev != nil {
				t.Fatalf("depth %d: push %d: ok=%v evicted=%v", depth, tag, ok, ev)
			}
		}
		ev, ok := q.push(mk(last))
		if !ok || ev == nil || ev.Bytes()[0] != 1 {
			t.Fatalf("depth %d: overflow push: ok=%v evicted=%v", depth, ok, ev)
		}
		ev.Free()
		if n := q.depth(); n != depth {
			t.Fatalf("depth %d: %d entries queued after the overflow push", depth, n)
		}
		for want := byte(2); want <= last; want++ {
			e, ok := q.pop()
			if !ok || e.buf.Bytes()[0] != want {
				t.Fatalf("depth %d: pop: ok=%v got=%v want=%d", depth, ok, e.buf, want)
			}
			e.buf.Free()
		}
		if left := q.close(); len(left) != 0 {
			t.Fatalf("depth %d: close returned %d entries from an empty queue", depth, len(left))
		}
		if _, ok := q.push(mk(9)); ok {
			t.Errorf("depth %d: push accepted after close", depth)
		} else {
			// ownership stays with the caller on a refused push
		}
		if live := g.pool.Live(); live != 1 { // the refused push's buffer
			t.Errorf("depth %d: pool live %d", depth, live)
		}
	}
}

// stubLink builds a gateway around one binding with the emulation
// client replaced by send, for driving ingest directly.
func stubLink(t *testing.T, b Binding, send func(wire.Packet) error) (*Gateway, *link) {
	t.Helper()
	g := newGateway(Config{Bindings: []Binding{b}})
	l := g.links[0]
	l.send = send
	t.Cleanup(g.Close)
	return g, l
}

var testFrom = netip.MustParseAddrPort("127.0.0.1:9999")

func TestIngestPlainAndLedger(t *testing.T) {
	var got []wire.Packet
	g, l := stubLink(t, Binding{Listen: "x", Node: 1, Channel: 2, Dst: 5, Flow: 7},
		func(p wire.Packet) error {
			got = append(got, wire.Packet{Dst: p.Dst, Channel: p.Channel, Flow: p.Flow, Seq: p.Seq})
			p.Buf.Free() // the transport consumes on success
			return nil
		})
	for i := 0; i < 3; i++ {
		l.ingest([]byte("hello"), testFrom)
	}
	if len(got) != 3 {
		t.Fatalf("sent %d packets, want 3", len(got))
	}
	for i, p := range got {
		if p.Dst != 5 || p.Channel != 2 || p.Flow != 7 || p.Seq != uint32(i+1) {
			t.Errorf("packet %d: %+v", i, p)
		}
	}
	// Oversize: payload over the bound is counted and never sent.
	l.ingest(make([]byte, g.cfg.MaxDatagram+1), testFrom)
	st := g.Stats()[0]
	if st.Ingress != 4 || st.Accepted != 3 || st.Oversize != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.Ingress != st.Accepted+st.Shed+st.BadFrame+st.Oversize+st.SendErr {
		t.Errorf("ingress ledger open: %+v", st)
	}
	if live := g.pool.Live(); live != 0 {
		t.Errorf("%d buffers live", live)
	}
	// Peer learning: the last ingress source becomes the egress peer.
	if p := l.peer.Load(); p == nil || *p != testFrom {
		t.Errorf("learned peer %v, want %v", p, testFrom)
	}
}

func TestIngestFramed(t *testing.T) {
	var got []wire.Packet
	_, l := stubLink(t, Binding{Listen: "x", Node: 1, Channel: 2, Dst: 5, Flow: 7, Framed: true},
		func(p wire.Packet) error {
			got = append(got, wire.Packet{Dst: p.Dst, Channel: p.Channel, Flow: p.Flow})
			p.Buf.Free()
			return nil
		})
	l.ingest(append(AppendHeader(nil, 9, 4, 2), 'x'), testFrom)
	l.ingest([]byte("not a frame"), testFrom)
	l.ingest([]byte{0x50}, testFrom)
	if len(got) != 1 || got[0].Dst != 9 || got[0].Channel != 4 || got[0].Flow != 2 {
		t.Fatalf("framed sends: %+v", got)
	}
	st := l.gw.Stats()[0]
	if st.BadFrame != 2 || st.Accepted != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestIngestSendErrorOwnership(t *testing.T) {
	calls := 0
	g, l := stubLink(t, Binding{Listen: "x", Node: 1, Channel: 1, Dst: 2},
		func(p wire.Packet) error {
			calls++
			if calls == 1 {
				// A transport failure: Send consumed the buffer anyway.
				p.Buf.Free()
				return errors.New("wire torn")
			}
			// The closed-client refusal: Send did NOT consume.
			return core.ErrClientClosed
		})
	l.ingest([]byte("a"), testFrom)
	l.ingest([]byte("b"), testFrom)
	if st := g.Stats()[0]; st.SendErr != 2 {
		t.Errorf("stats %+v", st)
	}
	if live := g.pool.Live(); live != 0 {
		t.Errorf("%d buffers leaked across Send errors", live)
	}
}

func TestShedGateRemoteHealth(t *testing.T) {
	g, l := stubLink(t, Binding{Listen: "x", Node: 1, Channel: 1, Dst: 2},
		func(p wire.Packet) error { p.Buf.Free(); return nil })
	g.SetHealth(fidelity.Degraded)
	l.ingest([]byte("shed me"), testFrom)
	g.SetHealth(fidelity.Overrun)
	l.ingest([]byte("shed me too"), testFrom)
	g.SetHealth(fidelity.Healthy)
	l.ingest([]byte("through"), testFrom)
	st := g.Stats()[0]
	if st.Shed != 2 || st.Accepted != 1 {
		t.Errorf("stats %+v, want Shed=2 Accepted=1", st)
	}
}

func TestShedGateAblation(t *testing.T) {
	g := newGateway(Config{
		Bindings:            []Binding{{Listen: "x", Node: 1, Channel: 1, Dst: 2}},
		DisableBackpressure: true,
	})
	l := g.links[0]
	l.send = func(p wire.Packet) error { p.Buf.Free(); return nil }
	t.Cleanup(g.Close)
	g.SetHealth(fidelity.Overrun)
	l.ingest([]byte("through anyway"), testFrom)
	if st := g.Stats()[0]; st.Shed != 0 || st.Accepted != 1 {
		t.Errorf("ablation stats %+v, want no shedding", st)
	}
}

// TestGatewayLoopback runs the full path over real sockets and an
// in-process emulation: socket A → gateway VMN 1 → emulated hop → VMN 2
// gateway → socket B, then back the other way through a learned peer.
func TestGatewayLoopback(t *testing.T) {
	clk := vclock.NewSystem(50)
	sc := scene.New(radio.NewIndexed(16), clk, 7)
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Seed: 7, TickStep: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := linkmodel.New(linkmodel.NoLoss{},
		linkmodel.ConstantBandwidth{Bps: 1e9},
		linkmodel.ConstantDelay{D: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetLinkModel(1, model); err != nil {
		t.Fatal(err)
	}
	for i, pos := range []geom.Vec2{geom.V(0, 0), geom.V(10, 0)} {
		if err := sc.AddNode(radio.NodeID(i+1), pos, []radio.Radio{{Channel: 1, Range: 100}}); err != nil {
			t.Fatal(err)
		}
	}
	lis := transport.NewInprocListener()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	t.Cleanup(func() { lis.Close(); srv.Close(); <-done })

	sockB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sockB.Close()
	gw, err := New(Config{
		Bindings: []Binding{
			{Listen: "127.0.0.1:0", Node: 1, Channel: 1, Dst: 2, Flow: 7},
			{Listen: "127.0.0.1:0", Node: 2, Channel: 1, Dst: 1, Flow: 7, Peer: sockB.LocalAddr().String()},
		},
		Dial: lis.Dialer(), LocalClock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	sockA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sockA.Close()

	gwAddr := func(i int) netip.AddrPort {
		return gw.Addr(i).(*net.UDPAddr).AddrPort()
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := sockA.WriteToUDPAddrPort([]byte(fmt.Sprintf("ping-%03d", i)), gwAddr(0)); err != nil {
			t.Fatal(err)
		}
	}
	recvAll := func(sock *net.UDPConn, want int) []string {
		var out []string
		buf := make([]byte, 2048)
		sock.SetReadDeadline(time.Now().Add(10 * time.Second))
		for len(out) < want {
			m, _, err := sock.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("after %d of %d datagrams: %v\ngateway: %+v\nserver: %+v",
					len(out), want, err, gw.Stats(), srv.Stats())
			}
			out = append(out, string(buf[:m]))
		}
		return out
	}
	got := recvAll(sockB, n)
	for i, s := range got {
		if want := fmt.Sprintf("ping-%03d", i); s != want {
			t.Fatalf("B datagram %d = %q, want %q (order must hold)", i, s, want)
		}
	}

	// Return path: VMN 1's egress peer was learned from sockA's sends.
	for i := 0; i < 5; i++ {
		if _, err := sockB.WriteToUDPAddrPort([]byte(fmt.Sprintf("pong-%d", i)), gwAddr(1)); err != nil {
			t.Fatal(err)
		}
	}
	back := recvAll(sockA, 5)
	for i, s := range back {
		if want := fmt.Sprintf("pong-%d", i); s != want {
			t.Fatalf("A datagram %d = %q, want %q", i, s, want)
		}
	}

	if !srv.Quiesce(10 * time.Second) {
		t.Fatalf("pipeline did not quiesce: %+v", srv.Stats())
	}
	// The egress writer counts a datagram written after the socket write
	// returns, so the peer can hold the last pong a moment before the
	// ledger shows it: wait for the ledgers to close rather than sample.
	egressOpen := func(st LinkStats) bool {
		return st.Delivered != st.Written+st.EgressDropped+st.Late+st.NoPeer+st.WriteErr+st.Abandoned
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		open := false
		for _, st := range gw.Stats() {
			open = open || egressOpen(st)
		}
		if !open {
			break
		}
	}
	for i, st := range gw.Stats() {
		if st.Ingress != st.Accepted+st.Shed+st.BadFrame+st.Oversize+st.SendErr {
			t.Errorf("link %d ingress ledger open: %+v", i, st)
		}
		if egressOpen(st) {
			t.Errorf("link %d egress ledger open: %+v", i, st)
		}
	}
	gw.Close()
	if live := gw.Pool().Live(); live != 0 {
		t.Errorf("%d gateway buffers live after close", live)
	}
}
