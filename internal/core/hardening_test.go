package core

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// tcpRig starts a server on a real TCP listener for byte-level abuse,
// honoring the package-level -shards override.
func tcpRig(t *testing.T) (addr string, sc *scene.Scene, srv *Server) {
	return tcpRigShards(t, *flagShards)
}

// tcpRigShards is tcpRig with an explicit shard count, for the
// shard-count matrix (0 = ServerConfig default).
func tcpRigShards(t *testing.T, shards int) (addr string, sc *scene.Scene, srv *Server) {
	t.Helper()
	clk := vclock.NewSystem(50)
	sc = scene.New(radio.NewIndexed(250), clk, 1)
	sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 200}})
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: shards})
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
	return lis.Addr(), sc, srv
}

// The handshake must be Hello-first: anything else gets a Bye and a
// closed connection.
func TestServerRejectsDataBeforeHello(t *testing.T) {
	addr, _, _ := tcpRig(t)
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		return // connection cut: also acceptable
	}
	bye, ok := m.(*wire.Bye)
	if !ok {
		t.Fatalf("got %v, want Bye", m.Type())
	}
	if !strings.Contains(bye.Reason, "Hello") {
		t.Errorf("Bye reason: %q", bye.Reason)
	}
}

// Only a decoded *wire.TrunkHello opens a trunk: a by-value one, which
// no sender makes, is an ordinary non-Hello first message. It gets the
// Hello-first Bye and leaves no pooled buffer behind.
func TestServerRejectsTrunkHelloByValue(t *testing.T) {
	clk := vclock.NewManual(0)
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: scene.New(radio.NewIndexed(250), clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	pool := mbuf.NewPool()
	lis := transport.NewInprocListener()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(transport.PoolIngress(lis, pool)) }()
	conn, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire.TrunkHello{Ver: wire.Version}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if bye, ok := m.(*wire.Bye); !ok || !strings.Contains(bye.Reason, "expected Hello") {
		t.Fatalf("got %#v, want the expected-Hello Bye", m)
	}
	conn.Close()
	lis.Close()
	srv.Close()
	<-done
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d pooled buffers still live", live)
	}
}

func TestServerRejectsBadVersion(t *testing.T) {
	addr, _, _ := tcpRig(t)
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(&wire.Hello{Ver: 999, ProposedID: 1})
	m, err := conn.Recv()
	if err != nil {
		return
	}
	if _, ok := m.(*wire.Bye); !ok {
		t.Fatalf("got %v, want Bye", m.Type())
	}
}

func TestServerRejectsBroadcastID(t *testing.T) {
	addr, _, _ := tcpRig(t)
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(&wire.Hello{Ver: wire.Version, ProposedID: radio.Broadcast})
	m, err := conn.Recv()
	if err != nil {
		return
	}
	if _, ok := m.(*wire.Bye); !ok {
		t.Fatalf("got %v, want Bye", m.Type())
	}
}

// Raw garbage on the socket must kill only that session, never the
// server.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	forEachShardCount(t, testServerSurvivesGarbageBytes)
}

func testServerSurvivesGarbageBytes(t *testing.T, shards int) {
	addr, _, srv := tcpRigShards(t, shards)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("this is not a PoEm frame at all, not even close"))
	raw.Close()
	// A second garbage client with a plausible length prefix.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw2.Write([]byte{0x00, 0x00, 0x00, 0x05, 0xEE, 1, 2, 3, 4})
	raw2.Close()
	time.Sleep(50 * time.Millisecond)
	// The server still accepts a well-behaved client.
	clk := vclock.NewSystem(50)
	c, err := Dial(ClientConfig{ID: 1, Dial: transport.TCPDialer(addr), LocalClock: clk})
	if err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	defer c.Close()
	if got := srv.Stats().Clients; got != 1 {
		t.Errorf("Clients = %d", got)
	}
}

// A client flooding packets into a nonexistent destination must only
// rack up NoRoute counters, not break anything.
func TestServerAbsorbsNoRouteFlood(t *testing.T) {
	addr, _, srv := tcpRig(t)
	clk := vclock.NewSystem(50)
	c, err := Dial(ClientConfig{ID: 1, Dial: transport.TCPDialer(addr), LocalClock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 500; i++ {
		if err := c.SendTo(77, 1, 0, []byte("void")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().NoRoute < 500 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().NoRoute; got != 500 {
		t.Errorf("NoRoute = %d", got)
	}
}

// Reconnecting with the same VMN after a disconnect must work (the
// session slot is freed).
func TestServerFreesSessionSlot(t *testing.T) {
	addr, _, _ := tcpRig(t)
	clk := vclock.NewSystem(50)
	c1, err := Dial(ClientConfig{ID: 1, Dial: transport.TCPDialer(addr), LocalClock: clk})
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	var c2 *Client
	for time.Now().Before(deadline) {
		c2, err = Dial(ClientConfig{ID: 1, Dial: transport.TCPDialer(addr), LocalClock: clk})
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("reconnect never succeeded: %v", err)
	}
	c2.Close()
}

// A session dying mid-burst must not lose other clients' traffic.
func TestServerIsolatesSessionFailure(t *testing.T) {
	forEachShardCount(t, testServerIsolatesSessionFailure)
}

func testServerIsolatesSessionFailure(t *testing.T, shards int) {
	addr, sc, _ := tcpRigShards(t, shards)
	sc.AddNode(2, geom.V(50, 0), []radio.Radio{{Channel: 1, Range: 200}})
	sc.AddNode(3, geom.V(100, 0), []radio.Radio{{Channel: 1, Range: 200}})
	clk := vclock.NewSystem(50)
	got := make(chan wire.Packet, 64)
	c3, err := Dial(ClientConfig{
		ID: 3, Dial: transport.TCPDialer(addr), LocalClock: clk,
		OnPacket: func(p wire.Packet) {
			p.Payload = append([]byte(nil), p.Payload...) // valid only during the callback
			got <- p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c2, err := Dial(ClientConfig{ID: 2, Dial: transport.TCPDialer(addr), LocalClock: clk})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Dial(ClientConfig{ID: 1, Dial: transport.TCPDialer(addr), LocalClock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Client 2 dies abruptly; client 1's traffic to 3 keeps flowing.
	c2.Close()
	if err := c1.SendTo(3, 1, 1, []byte("still works")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p.Payload) != "still works" {
			t.Errorf("payload: %q", p.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery lost after unrelated session death")
	}
}
