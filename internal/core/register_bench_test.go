package core

// BenchmarkRegisterInprocSession measures what one in-process client
// registration costs the server: the session, its send queue, the
// HelloAck and the initial radios notification (the scene gives every
// node a radio, as a storm's sessions have), which register sends
// itself. No writer starts: nothing is pushed and
// no radio changes after registration. The pipes, scene nodes and Hello
// messages are made before the timer starts, so B/op and allocs/op are
// the server's side alone. TestAllocGateRegisterInprocSession gates
// B/op so per-session state cannot creep back:
//
//	go test ./internal/core -run='^$' -bench=RegisterInprocSession -benchmem -benchtime=2000x

import (
	"testing"

	"repro/internal/gatetest"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The bound is the 562 B/op read once a session held no writer wakeup,
// start or drop closure and no link-model rand before its first packet
// (810 before), rounded up to the next 256 B. Earlier readings: 1 906
// once the link-model dice became counter-based (8 978 before), 1 681
// once the queues moved to ring.Ring, 810 once registration started no
// writer. A fresh process at one count.
func TestAllocGateRegisterInprocSession(t *testing.T) {
	gatetest.Bytes(t, "RegisterInprocSession", 2000, 768)
}

func BenchmarkRegisterInprocSession(b *testing.B) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(120), clk, 1)
	specs := make([]scene.NodeSpec, b.N)
	for i := range specs {
		specs[i] = scene.NodeSpec{ID: radio.NodeID(i + 1), Pos: geom.V(float64(i%128)*40, float64(i/128)*40),
			Radios: []radio.Radio{{Channel: 1, Range: 120}}}
	}
	if err := sc.AddNodes(specs); err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Seed: 1, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conns := make([]transport.Conn, b.N)
	hellos := make([]*wire.Hello, b.N)
	for i := range conns {
		_, conns[i] = transport.Pipe()
		hellos[i] = &wire.Hello{Ver: wire.Version, ProposedID: radio.NodeID(i + 1)}
	}
	sessions := make([]*session, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range sessions {
		if sessions[i], err = srv.register(conns[i], hellos[i]); err != nil {
			b.Fatal(err)
		}
	}
}
