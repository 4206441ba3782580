// Quickstart: the smallest complete PoEm emulation — an in-process
// server, two virtual MANET nodes within radio range, and one message
// between them. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func main() {
	// 1. The emulation clock: the server's is the reference every
	//    client synchronizes against. Scale 10 → emulated time runs 10×
	//    faster than the wall clock.
	clk := vclock.NewSystem(10)

	// 2. The scene: two nodes 80 units apart, both with one radio on
	//    channel 1 with range 200 — so they are neighbors.
	sc := scene.New(radio.NewIndexed(250), clk, 42)
	must(sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 200}}))
	must(sc.AddNode(2, geom.V(80, 0), []radio.Radio{{Channel: 1, Range: 200}}))

	// 3. The emulation server, listening in-process (swap in
	//    transport.ListenTCP for a real deployment).
	srv, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc})
	must(err)
	lis := transport.NewInprocListener()
	go srv.Serve(lis)
	defer srv.Close()
	defer lis.Close()

	// 4. Two emulation clients. Each maps to one Virtual MANET Node;
	//    node 2 prints whatever it receives.
	got := make(chan wire.Packet, 1)
	c2, err := core.Dial(core.ClientConfig{
		ID: 2, Dial: lis.Dialer(), LocalClock: clk,
		OnPacket: func(p wire.Packet) {
			// The payload is valid only during the callback: keep a copy.
			p.Payload = append([]byte(nil), p.Payload...)
			got <- p
		},
	})
	must(err)
	defer c2.Close()
	c1, err := core.Dial(core.ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk})
	must(err)
	defer c1.Close()

	// 5. Node 1 transmits on channel 1; the server consults the
	//    channel-indexed neighbor table and the link model, then
	//    forwards to node 2 at the computed time.
	must(c1.SendTo(2, 1, 0, []byte("hello MANET")))
	select {
	case p := <-got:
		fmt.Printf("VMN2 received %q from %v (stamped %v on the emulation clock)\n",
			p.Payload, p.Src, p.Stamp)
	case <-time.After(5 * time.Second):
		log.Fatal("nothing arrived")
	}

	// 6. Live scene construction: drag node 2 out of range and watch
	//    the same send go nowhere.
	sc.MoveNode(2, geom.V(500, 0))
	must(c1.SendTo(2, 1, 0, []byte("anyone there?")))
	select {
	case p := <-got:
		log.Fatalf("impossible delivery: %+v", p)
	case <-time.After(300 * time.Millisecond):
		fmt.Println("after moving VMN2 out of range: no delivery (as expected)")
	}
	st := srv.Stats()
	fmt.Printf("server stats: received=%d forwarded=%d noroute=%d\n",
		st.Received, st.Forwarded, st.NoRoute)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
