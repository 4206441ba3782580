package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// geomOrigin is where auto-created VMNs appear.
var geomOrigin = geom.V(0, 0)

// ClientConfig configures an emulation client (§3.3). The routing
// protocol under test lives *above* the client: it receives packets via
// OnPacket and transmits via Send, exactly as it would use a real radio
// interface — no modification required, which is the whole point of
// emulation.
//
// Send copies the payload before it returns on every transport but the
// in-process pipe, which hands it over by reference. Over TCP it does
// not wait for the write (see Client.Send): a dead connection shows up
// as an error from a later Send, and through OnClose.
type ClientConfig struct {
	// ID is the VMN this client embodies. Required.
	ID radio.NodeID
	// Dial opens the connection to the emulation server. Required.
	Dial transport.Dialer
	// LocalClock is the client machine's clock; default real time. The
	// emulation clock is derived from it via the §4.1 synchronization.
	LocalClock vclock.Clock
	// SyncRounds per synchronization; default 4, min-RTT sample wins.
	SyncRounds int
	// SyncTimeout bounds one synchronization round trip; default 5s
	// (wall time). A round that misses the deadline fails the sync; the
	// next resync retries.
	SyncTimeout time.Duration
	// ResyncEvery re-runs synchronization periodically (wall time);
	// zero syncs only at connect. The paper leaves the frequency to the
	// user "in consideration of the emulation duration, client
	// homogeneity and real-time requirements".
	ResyncEvery time.Duration
	// DriftCompensation switches the emulation clock from the paper's
	// offset-only scheme to a rate-estimating fit (vclock.RateSynced):
	// a client whose oscillator drifts stays accurate between resyncs.
	// Most useful together with ResyncEvery.
	DriftCompensation bool
	// OnPacket receives every packet forwarded to this VMN. Called on
	// the receive goroutine; hand off heavy work. On every transport the
	// payload is valid only until the callback returns: the client then
	// releases the message, and its bytes may belong to a recycled
	// buffer (over TCP the connection's read buffer, in process the
	// server's pooled one). Copy it to retain it. The payload is
	// read-only: in process the other receivers of the same broadcast
	// read the very same bytes. The packet's Buf is nil — the message
	// keeps its reference — so the callback may pass the packet to Send,
	// which over TCP copies it before returning.
	OnPacket func(wire.Packet)
	// OnRadios is told the VMN's current radio set (at connect and on
	// live scene changes).
	OnRadios func([]radio.Radio)
	// OnClose runs when the connection dies.
	OnClose func(error)
}

// syncedClock is the piece of vclock.Synced / vclock.RateSynced the
// client needs: the corrected time plus resynchronization.
type syncedClock interface {
	vclock.Clock
	Resync(ex vclock.Exchanger, rounds int) (vclock.Sample, error)
}

// Client is a connected emulation client.
type Client struct {
	cfg  ClientConfig
	conn transport.Conn
	// deferred is conn's deferred-write side, nil when it has none
	// (in-process pipes, transport.Faulty wrappers). Packets go out
	// through it; Hello, SyncReq and Bye always use conn.Send.
	deferred transport.DeferredSender
	clk      syncedClock
	// stamp is the packet-stamp clock: the synced clock behind a
	// monotonic floor. A resync that refines the offset downward makes
	// the raw synced clock step backwards; stamping through the floor
	// keeps each client's parallel timestamps non-decreasing across
	// resyncs (the chaos harness pins this as an invariant).
	stamp *vclock.Monotonic

	seq    atomic.Uint32
	closed atomic.Bool

	mu      sync.Mutex
	radios  []radio.Radio
	syncers map[vclock.Time]chan *wire.SyncReply

	wg         sync.WaitGroup
	stopResync chan struct{}

	// syncMu serializes sync round trips so the one reusable timeout
	// timer below is never armed twice (time.After in a loop would leak
	// a timer per round until it fired on its own).
	syncMu    sync.Mutex
	syncTimer *time.Timer
}

// ErrClientClosed is returned by Send after Close.
var ErrClientClosed = errors.New("core: client closed")

// Dial connects, registers the VMN, and synchronizes the emulation
// clock (Figure 5). The returned client is live: OnPacket may fire
// immediately.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, errors.New("core: ClientConfig.Dial is required")
	}
	if cfg.ID == radio.Broadcast {
		return nil, errors.New("core: ClientConfig.ID must be a concrete VMN id")
	}
	if cfg.LocalClock == nil {
		cfg.LocalClock = vclock.NewSystem(1)
	}
	if cfg.SyncRounds <= 0 {
		cfg.SyncRounds = 4
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 5 * time.Second
	}
	conn, err := cfg.Dial()
	if err != nil {
		return nil, err
	}
	if err := conn.Send(&wire.Hello{Ver: wire.Version, ProposedID: cfg.ID}); err != nil {
		conn.Close()
		return nil, err
	}
	m, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("core: handshake: %w", err)
	}
	switch ack := m.(type) {
	case *wire.HelloAck:
		if ack.Assigned != cfg.ID {
			conn.Close()
			return nil, fmt.Errorf("core: server assigned %v, wanted %v", ack.Assigned, cfg.ID)
		}
	case *wire.Bye:
		conn.Close()
		return nil, fmt.Errorf("core: server rejected: %s", ack.Reason)
	default:
		conn.Close()
		return nil, fmt.Errorf("core: unexpected handshake reply %v", m.Type())
	}
	var clk syncedClock
	if cfg.DriftCompensation {
		clk = vclock.NewRateSynced(cfg.LocalClock, 8)
	} else {
		clk = vclock.NewSynced(cfg.LocalClock)
	}
	c := &Client{
		cfg:        cfg,
		conn:       conn,
		clk:        clk,
		stamp:      vclock.NewMonotonic(clk),
		syncers:    make(map[vclock.Time]chan *wire.SyncReply),
		stopResync: make(chan struct{}),
	}
	c.deferred, _ = conn.(transport.DeferredSender)
	c.wg.Add(1)
	go c.recvLoop()
	// Initial clock synchronization; without it parallel stamping is
	// meaningless.
	if _, err := c.Resync(); err != nil {
		c.Close()
		return nil, fmt.Errorf("core: clock sync: %w", err)
	}
	if cfg.ResyncEvery > 0 {
		c.wg.Add(1)
		go c.resyncLoop()
	}
	return c, nil
}

// ID returns the VMN this client embodies.
func (c *Client) ID() radio.NodeID { return c.cfg.ID }

// Now returns the synchronized emulation time — the stamp source for
// parallel time-stamping. Readings never decrease, even when a resync
// steps the underlying offset backwards.
func (c *Client) Now() vclock.Time { return c.stamp.Now() }

// Offset returns the current clock correction: the difference between
// the synchronized emulation clock and the raw local clock.
func (c *Client) Offset() time.Duration {
	return time.Duration(c.clk.Now() - c.cfg.LocalClock.Now())
}

// Radios returns the VMN's current radio set as last announced by the
// server.
func (c *Client) Radios() []radio.Radio {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]radio.Radio(nil), c.radios...)
}

// Channels returns the VMN's current channel set.
func (c *Client) Channels() []radio.ChannelID {
	n := radio.Node{Radios: c.Radios()}
	return n.Channels()
}

// Send stamps and transmits one packet. Src is forced to the client's
// VMN; Stamp is the synchronized emulation clock ("all traffic ... will
// be packed, time-stamped and then directed to the server").
//
// The stamp is taken here, before the packet travels, so the time it
// spends on the way cannot distort emulated time (§3.3, Figure 2): the
// server schedules it for stamp + link latency whenever it arrives.
// Over TCP Send uses that freedom. It serializes the packet — the
// payload is copied before Send returns — and leaves the write to the
// connection's flusher, so a burst of Sends costs one write. A write
// failure therefore surfaces on a later Send (and through OnClose), not
// on the call whose bytes were lost; over a reliable stream a nil
// return never meant "the server has it". Close flushes what is pending.
func (c *Client) Send(pkt wire.Packet) error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	pkt.Src = c.cfg.ID
	pkt.Stamp = c.stamp.Now()
	// A pooled wrapper keeps the steady-state send path allocation-free;
	// the transport consumes it on every path.
	m := wire.AcquireData(pkt)
	if c.deferred != nil {
		return c.deferred.SendDeferred(m)
	}
	return c.conn.Send(m)
}

// SendTo is a convenience for unicast application payloads.
func (c *Client) SendTo(dst radio.NodeID, ch radio.ChannelID, flow uint16, payload []byte) error {
	return c.Send(wire.Packet{Dst: dst, Channel: ch, Flow: flow, Seq: c.seq.Add(1), Payload: payload})
}

// Broadcast sends to every current neighbor on the channel.
func (c *Client) Broadcast(ch radio.ChannelID, flow uint16, payload []byte) error {
	return c.SendTo(radio.Broadcast, ch, flow, payload)
}

// Resync performs one Figure 5 synchronization and installs the offset.
func (c *Client) Resync() (vclock.Sample, error) {
	return c.clk.Resync(vclock.ExchangerFunc(c.exchange), c.cfg.SyncRounds)
}

// exchange is one sync round trip over the live connection. Replies are
// routed back by TC1 through the receive loop. Rounds are serialized by
// syncMu; the timeout timer is reused across rounds and stopped on
// every exit path, and a connection closing mid-exchange aborts the
// wait promptly via stopResync.
func (c *Client) exchange(tc1 vclock.Time) (vclock.Time, vclock.Time, error) {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	ch := make(chan *wire.SyncReply, 1)
	if c.closed.Load() {
		return 0, 0, ErrClientClosed
	}
	c.mu.Lock()
	c.syncers[tc1] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.syncers, tc1)
		c.mu.Unlock()
	}()
	if err := c.conn.Send(&wire.SyncReq{TC1: tc1}); err != nil {
		return 0, 0, err
	}
	if c.syncTimer == nil {
		c.syncTimer = time.NewTimer(c.cfg.SyncTimeout)
	} else {
		c.syncTimer.Reset(c.cfg.SyncTimeout)
	}
	defer func() {
		if !c.syncTimer.Stop() {
			select { // drain a concurrent fire so Reset starts clean
			case <-c.syncTimer.C:
			default:
			}
		}
	}()
	select {
	case rep := <-ch:
		return rep.TS2, rep.TS3, nil
	case <-c.syncTimer.C:
		return 0, 0, errors.New("core: sync reply timeout")
	case <-c.stopResync:
		return 0, 0, ErrClientClosed
	}
}

func (c *Client) resyncLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ResyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Resync() // best effort; next tick retries
		case <-c.stopResync:
			return
		}
	}
}

func (c *Client) recvLoop() {
	defer c.wg.Done()
	var closeErr error
	for {
		m, err := c.conn.Recv()
		if err != nil {
			closeErr = err
			break
		}
		switch msg := m.(type) {
		case *wire.Data:
			if c.cfg.OnPacket != nil {
				pkt := msg.Pkt
				pkt.Buf = nil // Send would consume it
				c.cfg.OnPacket(pkt)
			}
			// Retire the wrapper and the packet's buffer reference — over
			// TCP one on the read buffer the payload aliases — now that
			// the callback is done with it.
			wire.ReleaseData(msg)
		case *wire.SyncReply:
			c.mu.Lock()
			ch := c.syncers[msg.TC1]
			c.mu.Unlock()
			if ch != nil {
				select {
				case ch <- msg:
				default:
				}
			}
		case *wire.Event:
			if msg.Kind == wire.EventRadios {
				c.mu.Lock()
				c.radios = append(c.radios[:0], msg.Radios...)
				c.mu.Unlock()
				if c.cfg.OnRadios != nil {
					c.cfg.OnRadios(append([]radio.Radio(nil), msg.Radios...))
				}
			}
		case *wire.Bye:
			closeErr = fmt.Errorf("core: server said bye: %s", msg.Reason)
			c.conn.Close()
			c.markClosed()
			if c.cfg.OnClose != nil {
				c.cfg.OnClose(closeErr)
			}
			return
		}
	}
	c.markClosed()
	if c.cfg.OnClose != nil {
		c.cfg.OnClose(closeErr)
	}
}

func (c *Client) markClosed() {
	if !c.closed.Swap(true) {
		close(c.stopResync)
	}
}

// Close tears the client down. Safe to call twice.
func (c *Client) Close() {
	c.markClosed()
	c.conn.Send(&wire.Bye{Reason: "client closing"})
	c.conn.Close()
	c.wg.Wait()
}
