package core

// BenchmarkRegisterInprocSession measures what one in-process client
// registration costs the server: the session, its send queue, the
// link-model dice, the HelloAck and the initial radios notification
// (the scene gives every node a radio, as a storm's sessions have),
// shipped by the session's writer. The pipes, scene nodes and Hello
// messages are made before the timer starts, so B/op and allocs/op are
// the server's side alone. scripts/check_allocs.sh gates B/op so
// per-session state cannot creep back:
//
//	go test ./internal/core -run='^$' -bench=RegisterInprocSession -benchmem -benchtime=2000x

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

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
	// The writers ship the radios notifications concurrently; wait for
	// all of them inside the timed region so their cost always counts.
	for _, sess := range sessions {
		for sess.q.depth() != 0 {
			runtime.Gosched()
		}
	}
}
