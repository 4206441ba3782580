package core

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Tests for the server front: Serve's accept-error and closed paths and
// register's failure paths (disconnect before Hello, HelloAck send
// failure, disconnect right after registration). These drive handle()
// directly with scripted connections so each failure point is hit
// deterministically rather than by racing a real transport teardown.

// errListener fails every Accept with a fixed error.
type errListener struct{ err error }

func (l errListener) Accept() (transport.Conn, error) { return nil, l.err }
func (l errListener) Close() error                    { return nil }
func (l errListener) Addr() string                    { return "errListener" }

// oneConnListener yields a single connection, then fails.
type oneConnListener struct {
	conn transport.Conn
	done bool
}

func (l *oneConnListener) Accept() (transport.Conn, error) {
	if l.done {
		return nil, errors.New("oneConnListener: exhausted")
	}
	l.done = true
	return l.conn, nil
}
func (l *oneConnListener) Close() error { return nil }
func (l *oneConnListener) Addr() string { return "oneConnListener" }

// scriptConn replays a fixed Recv script and can be told to fail every
// Send — the shape of a client that vanished mid-handshake.
type scriptConn struct {
	mu      sync.Mutex
	recvs   []wire.Msg // replayed in order; once empty, Recv returns recvErr
	recvErr error
	sendErr error
	sent    []wire.Msg
	closed  bool
}

func (c *scriptConn) Recv() (wire.Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.recvs) == 0 {
		err := c.recvErr
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	m := c.recvs[0]
	c.recvs = c.recvs[1:]
	return m, nil
}

func (c *scriptConn) Send(m wire.Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sendErr != nil {
		return c.sendErr
	}
	c.sent = append(c.sent, m)
	return nil
}

func (c *scriptConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *scriptConn) Label() string { return "script" }

// sentMsgs copies what was sent so far: the session writer may still be
// sending (the radios event follows the HelloAck) after handle returns.
func (c *scriptConn) sentMsgs() []wire.Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Msg(nil), c.sent...)
}

func (c *scriptConn) wasClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Serve must surface the listener's Accept error to its caller — the
// operator's main loop decides what a dead listener means, not the core.
func TestServeReturnsAcceptError(t *testing.T) {
	sc, clk := shardTestScene()
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sentinel := errors.New("listener torn down")
	if got := srv.Serve(errListener{err: sentinel}); !errors.Is(got, sentinel) {
		t.Fatalf("Serve returned %v, want the accept error", got)
	}
}

// A connection accepted after Close must be closed, not handled.
func TestServeAfterCloseRejectsConn(t *testing.T) {
	sc, clk := shardTestScene()
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	conn := &scriptConn{}
	if got := srv.Serve(&oneConnListener{conn: conn}); got == nil {
		t.Fatal("Serve on a closed server returned nil")
	}
	if !conn.wasClosed() {
		t.Error("conn accepted after Close was not closed")
	}
}

// A client that disconnects before sending Hello must leave no session
// behind, and the server keeps accepting others.
func TestRegisterDisconnectBeforeHello(t *testing.T) {
	forEachShardCount(t, testRegisterDisconnectBeforeHello)
}

func testRegisterDisconnectBeforeHello(t *testing.T, shards int) {
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards })
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	conn := &scriptConn{recvErr: io.EOF}
	r.server.handle(conn)
	if got := r.server.Stats().Clients; got != 0 {
		t.Fatalf("Clients = %d after pre-Hello disconnect", got)
	}
	// The failure was contained: a well-behaved client still registers.
	r.client(1, nil)
	if got := r.server.Stats().Clients; got != 1 {
		t.Errorf("Clients = %d", got)
	}
}

// A connection that dies between Hello and HelloAck (the send fails)
// must release the just-claimed VMN slot so the client can reconnect.
func TestRegisterHelloAckFailureReleasesSlot(t *testing.T) {
	forEachShardCount(t, testRegisterHelloAckFailureReleasesSlot)
}

func testRegisterHelloAckFailureReleasesSlot(t *testing.T, shards int) {
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards })
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	conn := &scriptConn{
		recvs:   []wire.Msg{&wire.Hello{Ver: wire.Version, ProposedID: 1}},
		sendErr: errors.New("peer reset"),
	}
	r.server.handle(conn)
	if got := r.server.Stats().Clients; got != 0 {
		t.Fatalf("Clients = %d: HelloAck failure leaked the session slot", got)
	}
	if !conn.wasClosed() {
		t.Error("failed handshake connection left open")
	}
	// The same VMN registers cleanly afterwards.
	r.client(1, nil)
	if got := r.server.Stats().Clients; got != 1 {
		t.Errorf("Clients = %d after reconnect", got)
	}
}

// Hello → HelloAck → immediate EOF: the session registers fully, then
// the reader loop — on its own goroutine once handle has returned — sees
// the disconnect and the slot is reaped.
func TestRegisterThenImmediateDisconnect(t *testing.T) {
	forEachShardCount(t, testRegisterThenImmediateDisconnect)
}

func testRegisterThenImmediateDisconnect(t *testing.T, shards int) {
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards })
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	conn := &scriptConn{recvs: []wire.Msg{&wire.Hello{Ver: wire.Version, ProposedID: 1}}}
	r.server.handle(conn)
	for deadline := time.Now().Add(5 * time.Second); r.server.Stats().Clients != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Clients = %d after disconnect", r.server.Stats().Clients)
		}
	}
	if !conn.wasClosed() {
		t.Error("disconnected session's connection left open")
	}
	// The handshake did complete before the disconnect.
	sent := conn.sentMsgs()
	if len(sent) == 0 {
		t.Fatal("no HelloAck sent")
	}
	if _, ok := sent[0].(*wire.HelloAck); !ok {
		t.Fatalf("first reply %v, want HelloAck", sent[0].Type())
	}
	r.client(1, nil)
	if got := r.server.Stats().Clients; got != 1 {
		t.Errorf("Clients = %d after reconnect", got)
	}
}
