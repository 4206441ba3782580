// Proofofconcept: the paper's §6.1 debugging workflow (Table 2). Five
// VMNs run the hybrid routing protocol against a live scene; the
// operator performs three scene operations and inspects VMN1's routing
// table after each — real-time scene construction in action. Run with:
//
//	go run ./examples/proofofconcept
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

const (
	scale  = 100.0                  // emulated time compression
	beacon = 400 * time.Millisecond // protocol beacon period (emulated)
)

func main() {
	clk := vclock.NewSystem(scale)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	srv, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc, Seed: 2})
	must(err)
	lis := transport.NewInprocListener()
	go srv.Serve(lis)
	defer srv.Close()
	defer lis.Close()

	// The Figure 8 scene: VMN3 sits ~198 units from VMN1 so shrinking
	// VMN1's range to 120 excludes exactly it.
	pos := map[radio.NodeID]geom.Vec2{
		1: geom.V(100, 100), 2: geom.V(220, 100), 3: geom.V(240, 240),
		4: geom.V(380, 100), 5: geom.V(380, 300),
	}
	for id, p := range pos {
		must(sc.AddNode(id, p, []radio.Radio{{Channel: 1, Range: 200}}))
	}

	// Every VMN embeds a real hybrid-protocol instance (periodic
	// broadcasting + on-demand discovery, per the paper).
	protos := map[radio.NodeID]routing.Protocol{}
	for id := range pos {
		p := routing.NewHybrid(routing.Config{HorizonHops: 4, EntryTTLTicks: 3})
		c, err := core.Dial(core.ClientConfig{
			ID: id, Dial: lis.Dialer(), LocalClock: clk, OnPacket: p.HandlePacket,
		})
		must(err)
		defer c.Close()
		p.Start(c)
		defer p.Stop()
		tk := vclock.Every(clk, beacon, func(vclock.Time) { p.Tick() })
		defer tk.Stop()
		protos[id] = p
	}
	vmn1 := protos[1]
	settle := func() { time.Sleep(16 * time.Duration(float64(beacon)/scale)) }
	show := func(op string) {
		entries := vmn1.Table()
		fmt.Printf("\n%s\nRouting Table in VMN1 — # of Routing Entries: %d\n", op, len(entries))
		for _, e := range entries {
			fmt.Printf("  %s\n", e)
		}
	}

	settle()
	show("Step1. Construct the network scene (Figure 8).")

	sc.SetRange(1, 1, 120) // the GUI's range slider
	settle()
	show("Step2. Shrink the radio range of VMN1 to exclude VMN3.")

	sc.SetRadios(1, []radio.Radio{{Channel: 2, Range: 200}}) // channel switch
	settle()
	show("Step3. Set different channels for the radios on VMN1 and VMN2.")

	// The hybrid protocol still delivers after step 2's repair: VMN1
	// reaches VMN3 via VMN2.
	sc.SetRadios(1, []radio.Radio{{Channel: 1, Range: 120}}) // back on ch1
	settle()
	must(protos[1].SendData(3, 9, 1, []byte("via the repaired route")))
	time.Sleep(200 * time.Millisecond)
	for _, d := range protos[3].Deliveries() {
		fmt.Printf("\nVMN3 received %q from %v\n", d.Payload, d.From)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
