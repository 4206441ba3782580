// Package gateway bridges real UDP sockets into the emulated scene —
// the paper's whole point made concrete: an unmodified application
// (iperf, a routing daemon, anything that speaks UDP) sends datagrams
// to a real socket, and they traverse the emulated multi-radio MANET
// as packets of the VMN the socket is bound to.
//
// Each port-map Binding becomes one full emulation client plus one real
// socket and two goroutines:
//
//   - ingress: a socket reader that frames each datagram into a pooled
//     mbuf-backed emulation packet and hands it to Client.Send, which
//     consumes the buffer on every path (the wire Send-consumes
//     contract). Steady state allocates nothing per datagram.
//   - egress: packets the scene delivers to the VMN are copied into a
//     pooled buffer on the client's receive callback (pooled payloads
//     are only valid during the callback), queued on a bounded ring,
//     and written back out the socket by a deadline-aware writer: a
//     datagram that has waited longer than EgressDeadline is counted
//     late and shed instead of being delivered stale — real-time
//     consumers prefer a loss to a lie about timing.
//
// Backpressure (the policy PR 8's fidelity monitor left open): the
// gateway subscribes to the health state machine and, while the
// binding's pipeline shard — or the server as a whole — is degraded or
// worse, sheds ingress drop-newest, counting poem_gateway_shed_total.
// Real time was already lost; buffering more real traffic into a late
// scene would only widen the lie. A colocated gateway subscribes
// directly (Config.Monitor); a remote one feeds polled /healthz states
// through SetHealth.
package gateway

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Defaults.
const (
	// DefaultEgressDepth bounds each link's egress ring.
	DefaultEgressDepth = 256
	// DefaultEgressDeadline is how stale a queued egress datagram may
	// grow (wall time) before the pacer sheds it instead of writing it.
	DefaultEgressDeadline = 500 * time.Millisecond
)

// Config configures a Gateway. Bindings and Dial are required.
type Config struct {
	// Bindings is the parsed port map (see ParsePortMap).
	Bindings []Binding
	// Dial opens each binding's connection to the emulation server.
	Dial transport.Dialer
	// LocalClock is the gateway host's clock; default real time.
	LocalClock vclock.Clock
	// SyncRounds per clock synchronization; default the client default.
	SyncRounds int
	// Pool supplies the packet buffers; nil creates a private pool.
	Pool *mbuf.Pool
	// Obs, when set, registers the gateway's per-link instruments.
	Obs *obs.Registry
	// Monitor subscribes the backpressure gate directly to a colocated
	// fidelity monitor (the embedded poemd -gateway path): each
	// binding's gate follows its node's pipeline shard, found from
	// Monitor.Shards(), and the server as a whole. Remote gateways leave
	// it nil and feed the server-wide state through SetHealth instead.
	Monitor *fidelity.Monitor
	// DisableBackpressure turns the shedding policy off — the A9
	// ablation: the gateway keeps feeding a scene that has lost real
	// time.
	DisableBackpressure bool
	// EgressDepth bounds each link's egress ring (drop-oldest on
	// overflow). Zero selects DefaultEgressDepth.
	EgressDepth int
	// EgressDeadline is the egress pacer's staleness bound (wall time).
	// Zero selects DefaultEgressDeadline; negative disables the pacer.
	EgressDeadline time.Duration
	// MaxDatagram bounds an ingress datagram's payload. Zero selects
	// wire.MaxPayload (also the hard cap).
	MaxDatagram int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.LocalClock == nil {
		c.LocalClock = vclock.NewSystem(1)
	}
	if c.Pool == nil {
		c.Pool = mbuf.NewPool()
	}
	if c.EgressDepth <= 0 {
		c.EgressDepth = DefaultEgressDepth
	}
	if c.EgressDeadline == 0 {
		c.EgressDeadline = DefaultEgressDeadline
	}
	if c.MaxDatagram <= 0 || c.MaxDatagram > wire.MaxPayload {
		c.MaxDatagram = wire.MaxPayload
	}
	return c
}

// Gateway is a set of real-socket ↔ emulation bridges.
type Gateway struct {
	cfg   Config
	pool  *mbuf.Pool
	links []*link

	// serverState is the externally-fed health state (SetHealth); with
	// a Monitor attached the gate also reads the monitor directly.
	serverState atomic.Uint32

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// link is one binding's runtime: socket, emulation client, queues and
// counters.
type link struct {
	gw    *Gateway
	b     Binding
	shard int // the node's pipeline shard under Monitor.Shards()

	conn   *net.UDPConn
	client *core.Client
	send   func(wire.Packet) error // client.Send; stubbed in tests

	// peer is the egress destination: the static Binding.Peer, or the
	// source of the most recent ingress datagram.
	peer atomic.Pointer[netip.AddrPort]

	// gate caches the effective health state; ingress sheds at one
	// atomic load when it reads Degraded or worse.
	gate atomic.Uint32

	local   *mbuf.Local // ingress allocations; ingress goroutine only
	egLocal *mbuf.Local // egress allocations; client receive goroutine only
	out     *egressQueue
	seq     uint32 // ingress goroutine only

	// Ingress ledger: nIngress == nAccepted + nShed + nBadFrame +
	// nOversize + nSendErr once the reader is quiet.
	nIngress  atomic.Uint64
	nAccepted atomic.Uint64
	nShed     atomic.Uint64
	nBadFrame atomic.Uint64
	nOversize atomic.Uint64
	nSendErr  atomic.Uint64

	// Egress ledger: nDelivered == nWritten + nEgressDrop + nLate +
	// nNoPeer + nWriteErr + nAbandoned once drained.
	nDelivered  atomic.Uint64
	nWritten    atomic.Uint64
	nEgressDrop atomic.Uint64
	nLate       atomic.Uint64
	nNoPeer     atomic.Uint64
	nWriteErr   atomic.Uint64
	nAbandoned  atomic.Uint64

	egressLag *obs.Histogram // nil without a registry
}

// New builds and starts a gateway: every binding's socket is bound, its
// emulation client dialed and its goroutines launched. On any error the
// partially-started gateway is torn down.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Bindings) == 0 {
		return nil, errors.New("gateway: no bindings")
	}
	if cfg.Dial == nil {
		return nil, errors.New("gateway: Config.Dial is required")
	}
	g := newGateway(cfg)
	if err := g.start(); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// newGateway builds the gateway structure without touching the network
// — the seam the fuzz and benchmark harnesses use to drive ingest
// directly.
func newGateway(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{cfg: cfg, pool: cfg.Pool}
	for _, b := range cfg.Bindings {
		l := &link{
			gw: g, b: b,
			local:   cfg.Pool.NewLocal(),
			egLocal: cfg.Pool.NewLocal(),
			out:     newEgressQueue(cfg.EgressDepth),
		}
		g.links = append(g.links, l)
	}
	if cfg.Obs != nil {
		g.instrument(cfg.Obs)
	}
	return g
}

func (g *Gateway) start() error {
	for _, l := range g.links {
		if m := g.cfg.Monitor; m != nil {
			l.shard = core.ShardIndex(l.b.Node, m.Shards())
		}
		if l.b.Peer != "" {
			ua, err := net.ResolveUDPAddr("udp", l.b.Peer)
			if err != nil {
				return fmt.Errorf("gateway: node %d peer: %w", l.b.Node, err)
			}
			// Unmap: net.IP stores IPv4 in 16 bytes, so AddrPort() yields
			// ::ffff:a.b.c.d, which an IPv4-bound socket refuses to write to.
			ap := netip.AddrPortFrom(ua.AddrPort().Addr().Unmap(), ua.AddrPort().Port())
			l.peer.Store(&ap)
		}
		la, err := net.ResolveUDPAddr("udp", l.b.Listen)
		if err != nil {
			return fmt.Errorf("gateway: node %d listen: %w", l.b.Node, err)
		}
		l.conn, err = net.ListenUDP("udp", la)
		if err != nil {
			return fmt.Errorf("gateway: node %d: %w", l.b.Node, err)
		}
		l := l
		l.client, err = core.Dial(core.ClientConfig{
			ID: l.b.Node, Dial: g.cfg.Dial,
			LocalClock: g.cfg.LocalClock, SyncRounds: g.cfg.SyncRounds,
			OnPacket: l.onPacket,
		})
		if err != nil {
			return fmt.Errorf("gateway: node %d: %w", l.b.Node, err)
		}
		l.send = l.client.Send
		g.wg.Add(2)
		go l.readLoop()
		go l.writeLoop()
		g.logf("gateway: node %d on %s (ch %d, framed=%v)", l.b.Node, l.conn.LocalAddr(), l.b.Channel, l.b.Framed)
	}
	if m := g.cfg.Monitor; m != nil {
		m.SetOnTransition(func(shard int, from, to fidelity.State) {
			g.refreshGates(shard)
		})
		g.refreshGates(-1)
	}
	return nil
}

// SetHealth feeds a remotely-observed server-wide health state (the
// /healthz poller in cmd/poem-gateway) into the backpressure gate.
func (g *Gateway) SetHealth(st fidelity.State) {
	g.serverState.Store(uint32(st))
	g.refreshGates(-1)
}

// refreshGates recomputes link gates after a health transition: every
// link when shard is -1 (server-wide change), otherwise only the links
// whose node lives on that shard.
func (g *Gateway) refreshGates(shard int) {
	for _, l := range g.links {
		if shard >= 0 && l.shard != shard {
			continue
		}
		st := fidelity.State(g.serverState.Load())
		if m := g.cfg.Monitor; m != nil {
			if s := m.State(); s > st {
				st = s
			}
			if s := m.Shard(l.shard).State(); s > st {
				st = s
			}
		}
		was := fidelity.State(l.gate.Swap(uint32(st)))
		if was != st {
			g.logf("gateway: node %d backpressure gate %s → %s", l.b.Node, was, st)
		}
	}
}

// readLoop is the ingress side: one blocking reader on the real socket.
func (l *link) readLoop() {
	defer l.gw.wg.Done()
	scratch := make([]byte, l.gw.cfg.MaxDatagram+HeaderSize+1)
	for {
		n, from, err := l.conn.ReadFromUDPAddrPort(scratch)
		if err != nil {
			return // socket closed: Gateway.Close
		}
		l.ingest(scratch[:n], from)
	}
}

// ingest carries one received datagram into the emulation. It is the
// zero-alloc steady-state path the CI alloc gate pins: peer learning,
// the shed gate, frame parsing and the pooled copy all stay on the
// stack, and Send consumes the buffer on every path but one.
func (l *link) ingest(b []byte, from netip.AddrPort) {
	l.nIngress.Add(1)
	if l.b.Peer == "" && from.IsValid() {
		if cur := l.peer.Load(); cur == nil || *cur != from {
			p := from
			l.peer.Store(&p)
		}
	}
	if !l.gw.cfg.DisableBackpressure && fidelity.State(l.gate.Load()) >= fidelity.Degraded {
		// Drop-newest: the scene is behind real time; the datagram that
		// just arrived is the one that gets shed.
		l.nShed.Add(1)
		return
	}
	dst, ch, flow := l.b.Dst, l.b.Channel, l.b.Flow
	if l.b.Framed {
		var err error
		dst, ch, flow, b, err = parseHeader(b)
		if err != nil {
			l.nBadFrame.Add(1)
			return
		}
	}
	if len(b) > l.gw.cfg.MaxDatagram {
		l.nOversize.Add(1)
		return
	}
	buf := mbuf.AllocCopy(l.local, b)
	l.seq++
	pkt := wire.Packet{
		Dst: dst, Channel: ch, Flow: flow, Seq: l.seq,
		Payload: buf.Bytes(), Buf: buf,
	}
	if err := l.send(pkt); err != nil {
		l.nSendErr.Add(1)
		if errors.Is(err, core.ErrClientClosed) {
			// The one path where Send returns before consuming the
			// packet: the client refused it without touching the wire.
			buf.Free()
		}
		return
	}
	l.nAccepted.Add(1)
}

// onPacket is the egress entry point, on the emulation client's receive
// goroutine. The pooled payload is only valid during the callback, so
// it is copied into a buffer the egress ring owns.
func (l *link) onPacket(p wire.Packet) {
	l.nDelivered.Add(1)
	var buf *mbuf.Buf
	if l.b.Framed {
		buf = l.egLocal.Alloc(HeaderSize + len(p.Payload))
		bs := buf.Bytes()
		AppendHeader(bs[:0], p.Src, p.Channel, p.Flow)
		copy(bs[HeaderSize:], p.Payload)
	} else {
		buf = mbuf.AllocCopy(l.egLocal, p.Payload)
	}
	evicted, ok := l.out.push(egressEntry{buf: buf, at: time.Now()})
	if !ok {
		buf.Free()
		l.nAbandoned.Add(1)
		return
	}
	if evicted != nil {
		evicted.Free()
		l.nEgressDrop.Add(1)
	}
}

// writeLoop is the egress side: the deadline-aware pacer draining the
// ring onto the real socket.
func (l *link) writeLoop() {
	defer l.gw.wg.Done()
	dl := l.gw.cfg.EgressDeadline
	for {
		e, ok := l.out.pop()
		if !ok {
			return
		}
		lag := time.Since(e.at)
		if l.egressLag != nil {
			l.egressLag.Observe(lag)
		}
		if dl > 0 && lag > dl {
			l.nLate.Add(1)
			e.buf.Free()
			continue
		}
		peer := l.peer.Load()
		if peer == nil || !peer.IsValid() {
			l.nNoPeer.Add(1)
			e.buf.Free()
			continue
		}
		if _, err := l.conn.WriteToUDPAddrPort(e.buf.Bytes(), *peer); err != nil {
			l.nWriteErr.Add(1)
		} else {
			l.nWritten.Add(1)
		}
		e.buf.Free()
	}
}

// Close tears the gateway down: sockets first (ingress readers exit),
// then the emulation clients (no more deliveries), then the egress
// rings — whatever they still hold is settled as abandoned so the
// buffer pool's leak check closes at zero.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	if m := g.cfg.Monitor; m != nil {
		m.SetOnTransition(nil)
	}
	for _, l := range g.links {
		if l.conn != nil {
			l.conn.Close()
		}
	}
	for _, l := range g.links {
		if l.client != nil {
			l.client.Close()
		}
	}
	for _, l := range g.links {
		for _, e := range l.out.close() {
			e.buf.Free()
			l.nAbandoned.Add(1)
		}
	}
	g.wg.Wait()
	for _, l := range g.links {
		// Both goroutines (and the client's receive loop) are done; the
		// single-owner caches can spill back to the pool.
		l.local.Close()
		l.egLocal.Close()
	}
}

// Addr returns the real address binding i actually listens on (the
// port-map may say :0).
func (g *Gateway) Addr(i int) net.Addr { return g.links[i].conn.LocalAddr() }

// Pool returns the buffer pool the gateway allocates from, for leak
// checks in tests and shutdown paths.
func (g *Gateway) Pool() *mbuf.Pool { return g.pool }

// Gate returns binding i's current backpressure gate state.
func (g *Gateway) Gate(i int) fidelity.State {
	return fidelity.State(g.links[i].gate.Load())
}

// LinkStats is one binding's traffic ledger. At any quiet point the
// ingress side satisfies
//
//	Ingress == Accepted + Shed + BadFrame + Oversize + SendErr
//
// and the egress side
//
//	Delivered == Written + EgressDropped + Late + NoPeer + WriteErr + Abandoned.
type LinkStats struct {
	Node radio.NodeID

	Ingress  uint64 // datagrams read off the real socket
	Accepted uint64 // datagrams sent into the emulation
	Shed     uint64 // dropped-newest by the backpressure gate
	BadFrame uint64 // framed-mode parse failures
	Oversize uint64 // payloads over MaxDatagram
	SendErr  uint64 // client Send failures

	Delivered     uint64 // packets the scene delivered to this node
	Written       uint64 // datagrams written out the real socket
	EgressDropped uint64 // evicted drop-oldest by a full egress ring
	Late          uint64 // shed by the pacer past EgressDeadline
	NoPeer        uint64 // no egress destination known yet
	WriteErr      uint64 // socket write failures
	Abandoned     uint64 // still queued when the gateway closed
}

// Stats snapshots every binding's ledger, in binding order.
func (g *Gateway) Stats() []LinkStats {
	out := make([]LinkStats, len(g.links))
	for i, l := range g.links {
		out[i] = LinkStats{
			Node:     l.b.Node,
			Ingress:  l.nIngress.Load(),
			Accepted: l.nAccepted.Load(),
			Shed:     l.nShed.Load(),
			BadFrame: l.nBadFrame.Load(),
			Oversize: l.nOversize.Load(),
			SendErr:  l.nSendErr.Load(),

			Delivered:     l.nDelivered.Load(),
			Written:       l.nWritten.Load(),
			EgressDropped: l.nEgressDrop.Load(),
			Late:          l.nLate.Load(),
			NoPeer:        l.nNoPeer.Load(),
			WriteErr:      l.nWriteErr.Load(),
			Abandoned:     l.nAbandoned.Load(),
		}
	}
	return out
}

// instrument registers per-link counter families, labeled by node id.
func (g *Gateway) instrument(reg *obs.Registry) {
	counter := func(l *link, name, help string, v *atomic.Uint64) {
		reg.CounterFunc(obs.Labeled(name, "node", strconv.FormatUint(uint64(l.b.Node), 10)), help, v.Load)
	}
	for _, l := range g.links {
		l := l
		node := strconv.FormatUint(uint64(l.b.Node), 10)
		counter(l, "poem_gateway_ingress_total", "datagrams read off the real socket", &l.nIngress)
		counter(l, "poem_gateway_accepted_total", "datagrams sent into the emulation", &l.nAccepted)
		counter(l, "poem_gateway_shed_total", "ingress datagrams shed drop-newest by the backpressure gate", &l.nShed)
		counter(l, "poem_gateway_bad_frame_total", "framed-mode datagrams that failed to parse", &l.nBadFrame)
		counter(l, "poem_gateway_oversize_total", "ingress datagrams over the payload bound", &l.nOversize)
		counter(l, "poem_gateway_send_err_total", "ingress datagrams refused by the emulation client", &l.nSendErr)
		counter(l, "poem_gateway_delivered_total", "packets the scene delivered to this binding", &l.nDelivered)
		counter(l, "poem_gateway_egress_written_total", "datagrams written out the real socket", &l.nWritten)
		counter(l, "poem_gateway_egress_drop_total", "egress datagrams evicted drop-oldest by a full ring", &l.nEgressDrop)
		counter(l, "poem_gateway_egress_late_total", "egress datagrams shed past the deadline by the pacer", &l.nLate)
		counter(l, "poem_gateway_no_peer_total", "egress datagrams with no destination address known", &l.nNoPeer)
		counter(l, "poem_gateway_write_err_total", "egress socket write failures", &l.nWriteErr)
		counter(l, "poem_gateway_abandoned_total", "egress datagrams still queued at close", &l.nAbandoned)
		l.egressLag = reg.Histogram(obs.Labeled("poem_gateway_egress_lag_ns", "node", node),
			"wall time an egress datagram spent queued before the pacer's verdict")
		reg.Gauge(obs.Labeled("poem_gateway_gate", "node", node),
			"backpressure gate state (0=open 1=degraded-shedding 2=overrun-shedding)",
			func() float64 { return float64(l.gate.Load()) })
	}
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}
