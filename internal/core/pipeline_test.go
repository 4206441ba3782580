package core

import (
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Tests for the per-session delivery pipeline: in-order forwarding,
// slow-client isolation (drop-oldest backpressure), bounded goroutine
// count, stamp clamping, and the sync timeout. The order and goroutine
// tests are regressions against the old goroutine-per-packet send path,
// which raced sends on the connection lock and spawned one goroutine
// per in-flight delivery.

// uniformModel is a deterministic zero-loss link: every delivery gets
// the same delay, so schedule order equals send order.
func uniformModel(d time.Duration) linkmodel.Model {
	return linkmodel.Model{
		Loss:      linkmodel.NoLoss{},
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e9},
		Delay:     linkmodel.ConstantDelay{D: d},
	}
}

// rawSession dials the listener and completes only the Hello handshake:
// a client that is alive at the transport level but never reads, the
// worst-case slow consumer.
func rawSession(t *testing.T, lis *transport.InprocListener, id radio.NodeID) transport.Conn {
	t.Helper()
	conn, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Hello{Ver: wire.Version, ProposedID: id}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*wire.HelloAck); !ok {
		t.Fatalf("handshake reply %v, want HelloAck", m.Type())
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// wedgedConn is the worst-case slow consumer made observable: it
// completes the Hello handshake, takes the radio set registration sends
// right after the HelloAck, and then never takes another message. The
// first Send after those closes stuck and blocks until release closes
// (at Close, unless a test gave release a channel of its own), so a test
// can wait for the session writer to be provably wedged instead of
// inferring it from a transport buffer that ought to be full by now.
type wedgedConn struct {
	hello   chan wire.Msg
	acked   chan struct{} // closed when HelloAck is sent: the session is registered
	stuck   chan struct{} // closed when the session writer first blocks in Send
	closed  chan struct{}
	release chan struct{} // ends a blocked Send; closed by default
	// pastAck records that a message after the HelloAck was sent. Only
	// the first may be the handshake's radio set: the session's writer
	// starts after it.
	pastAck bool

	stuckOnce, closeOnce sync.Once
}

func newWedgedConn(id radio.NodeID) *wedgedConn {
	c := &wedgedConn{hello: make(chan wire.Msg, 1), acked: make(chan struct{}),
		stuck: make(chan struct{}), closed: make(chan struct{})}
	c.release = c.closed
	c.hello <- &wire.Hello{Ver: wire.Version, ProposedID: id}
	return c
}

func (c *wedgedConn) Recv() (wire.Msg, error) {
	select {
	case m := <-c.hello:
		return m, nil
	case <-c.closed:
		return nil, io.EOF
	}
}

func (c *wedgedConn) Send(m wire.Msg) error {
	switch m.(type) {
	case *wire.HelloAck:
		close(c.acked)
		return nil
	case *wire.Bye: // registration refused: nothing will ever block
		return nil
	}
	first := !c.pastAck
	c.pastAck = true
	if _, radios := m.(*wire.Event); radios && first {
		return nil // the radio set registration sends
	}
	c.stuckOnce.Do(func() { close(c.stuck) })
	<-c.release
	wire.ReleaseMsg(m)
	return transport.ErrClosed
}

func (c *wedgedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *wedgedConn) Label() string { return "wedged" }

// await fails the test unless ch closes within the timeout.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// Deliveries to one client must arrive in schedule order. With a
// uniform link delay the schedule order is the send order, so the
// received Seq sequence must be strictly increasing — the old
// goroutine-per-packet path raced concurrent sends and reordered them.
func TestDeliveryOrderMatchesSchedule(t *testing.T) {
	forEachShardCount(t, testDeliveryOrderMatchesSchedule)
}

func testDeliveryOrderMatchesSchedule(t *testing.T, shards int) {
	const n = 500
	// The whole burst fits the receiver's send queue: this test asserts
	// order, and with the default 256-deep queue a receiver descheduled
	// mid-burst would legitimately lose the head to drop-oldest.
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards; c.SendQueueDepth = n })
	r.scene.SetLinkModel(1, uniformModel(time.Millisecond))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))

	var mu sync.Mutex
	var got []uint32
	all := make(chan struct{})
	c2cfg := ClientConfig{
		ID: 2, Dial: r.lis.Dialer(), LocalClock: r.clk,
		OnPacket: func(p wire.Packet) {
			mu.Lock()
			got = append(got, p.Seq)
			if len(got) == n {
				close(all)
			}
			mu.Unlock()
		},
	}
	c2, err := Dial(c2cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c1 := r.client(1, nil)
	for i := 1; i <= n; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("only %d/%d delivered", len(got), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out-of-order delivery at %d: seq %d after %d", i, got[i], got[i-1])
		}
	}
}

// A wedged client must only backpressure itself: its queue fills and
// drops oldest, while other sessions keep receiving both packets and
// radios notifications. Under the old shared event loop, one blocked
// conn.Send stalled scene events for every client.
func TestSlowClientDoesNotStallOthers(t *testing.T) {
	forEachShardCount(t, testSlowClientDoesNotStallOthers)
}

func testSlowClientDoesNotStallOthers(t *testing.T, shards int) {
	r := newRig(t, func(c *ServerConfig) { c.SendQueueDepth = 8; c.Shards = shards })
	r.scene.SetLinkModel(1, uniformModel(0))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	r.scene.AddNode(3, geom.V(0, 50), oneRadio(1, 200))

	// VMN2 never reads. Its connection says when its writer is stuck: an
	// in-proc pipe only wedges the writer once 512 messages fill it, and
	// with an 8-deep queue the scanner can outrun the writer and lose most
	// of the flood to drop-oldest first, leaving the pipe short of full,
	// the writer free and the queue drained ("session 2: queue reported
	// empty while wedged", ≈ 1 run in 3 under -race at 4 shards).
	wedged := newWedgedConn(2)
	go r.server.Serve(&oneConnListener{conn: wedged})
	await(t, wedged.acked, "VMN2 to register")
	sk := newSink()
	c3, err := Dial(ClientConfig{ID: 3, Dial: r.lis.Dialer(), LocalClock: r.clk, OnPacket: sk.on})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c1 := r.client(1, nil)

	// Flood the wedged client far past its queue depth so the
	// drop-oldest policy must engage.
	const flood = 900
	for i := 1; i <= flood; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	await(t, wedged.stuck, "VMN2's writer to block in Send")
	deadline := time.Now().Add(10 * time.Second)
	for r.server.Stats().QueueDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := r.server.Stats(); st.QueueDrops == 0 {
		t.Fatalf("no queue drops after flooding a wedged client: %+v", st)
	}
	// The healthy session still gets traffic, promptly.
	if err := c1.Send(wire.Packet{Dst: 3, Channel: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	sk.wait(t, 5*time.Second)
	// Scene events for healthy clients flow even while VMN2's writer is
	// wedged mid-Send and its own radios flag waits for it.
	r.scene.SetRadios(2, []radio.Radio{{Channel: 5, Range: 200}})
	r.scene.SetRadios(3, []radio.Radio{{Channel: 7, Range: 200}})
	evDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(evDeadline) {
		if rs := c3.Radios(); len(rs) == 1 && rs[0].Channel == 7 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rs := c3.Radios(); len(rs) != 1 || rs[0].Channel != 7 {
		t.Fatalf("healthy client starved of radios event: %v", rs)
	}
	// Let the scanner fire the whole flood before sampling: once every
	// delivery has fired the wedged session's queue is pinned full
	// (writer blocked, drop-oldest engaged).
	drainDeadline := time.Now().Add(10 * time.Second)
	for r.server.Stats().Scheduled > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	if sch := r.server.Stats().Scheduled; sch > 0 {
		t.Fatalf("schedule never drained: %d pending", sch)
	}
	// Per-session accounting: the wedged session owns the drops and
	// reports a backed-up queue.
	for _, ss := range r.server.SessionStats() {
		switch ss.ID {
		case 2:
			if ss.QueueDrops == 0 {
				t.Errorf("session 2: no drops recorded: %+v", ss)
			}
			if ss.QueueDepth == 0 {
				t.Errorf("session 2: queue reported empty while wedged: %+v", ss)
			}
		case 3:
			if ss.QueueDrops != 0 {
				t.Errorf("session 3 charged with drops: %+v", ss)
			}
		}
	}
}

// Goroutine count under load must be O(connected clients), not
// O(in-flight packets): the old path parked one goroutine per delivery
// on the wedged connection's write lock.
func TestGoroutineCountBounded(t *testing.T) {
	forEachShardCount(t, testGoroutineCountBounded)
}

func testGoroutineCountBounded(t *testing.T, shards int) {
	r := newRig(t, func(c *ServerConfig) { c.SendQueueDepth = 16; c.Shards = shards })
	r.scene.SetLinkModel(1, uniformModel(0))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	rawSession(t, r.lis, 2) // never reads
	c1 := r.client(1, nil)

	before := runtime.NumGoroutine()
	const flood = 1000
	for i := 1; i <= flood; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the whole flood has been ingested and the schedule has
	// fired everything at the sessions (an empty schedule alone can also
	// mean ingest has not caught up with the flood yet).
	pending := func() bool {
		if r.server.Stats().Received < flood {
			return true
		}
		// A second snapshot: the depth must be read after ingest was
		// seen complete, and one Stats call reads it before Received.
		return r.server.Stats().Scheduled > 0
	}
	for deadline := time.Now().Add(10 * time.Second); pending() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if pending() {
		t.Fatalf("flood never drained: %+v", r.server.Stats())
	}
	after := runtime.NumGoroutine()
	// One writer per session plus scanner/ticker noise; the old path
	// would sit at ~flood-minus-transport-buffer extra goroutines here.
	if grew := after - before; grew > 50 {
		t.Fatalf("goroutine count grew by %d under load (before %d, after %d)", grew, before, after)
	}
	if drops := r.server.Stats().QueueDrops; drops == 0 {
		t.Error("flood did not exercise the drop path")
	}
}

// A client stamping packets far in the future must be clamped to
// now+MaxStampSkew so it cannot park traffic arbitrarily deep in the
// schedule.
func TestFutureStampClamped(t *testing.T) {
	r := newRig(t, func(c *ServerConfig) { c.MaxStampSkew = 100 * time.Millisecond })
	r.scene.SetLinkModel(1, uniformModel(0))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	r.client(2, sk)
	raw := rawSession(t, r.lis, 1)
	pkt := wire.Packet{Src: 1, Dst: 2, Channel: 1, Seq: 1, Stamp: r.clk.Now().Add(time.Hour)}
	if err := raw.Send(&wire.Data{Pkt: pkt}); err != nil {
		t.Fatal(err)
	}
	// Unclamped, the delivery sits an emulated hour out (72s wall at
	// 50×); clamped it is due within ~100 emulated ms.
	p := sk.wait(t, 5*time.Second)
	if p.Seq != 1 {
		t.Fatalf("got %+v", p)
	}
	if st := r.server.Stats(); st.StampClamped != 1 {
		t.Errorf("StampClamped = %d, want 1", st.StampClamped)
	}
}

// The sync round timeout is configurable and aborts a dead exchange
// promptly instead of holding the 5s default.
func TestSyncTimeoutConfigurable(t *testing.T) {
	lis := transport.NewInprocListener()
	defer lis.Close()
	// A fake server that acks the handshake and then swallows all sync
	// requests.
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if h, ok := m.(*wire.Hello); ok {
				conn.Send(&wire.HelloAck{Assigned: h.ProposedID})
			}
		}
	}()
	start := time.Now()
	_, err := Dial(ClientConfig{
		ID: 1, Dial: lis.Dialer(), LocalClock: vclock.NewSystem(1),
		SyncRounds: 1, SyncTimeout: 100 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sync against a mute server succeeded")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("sync timeout not honored: took %v", elapsed)
	}
}
