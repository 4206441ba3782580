// Command poem-client runs one emulation client: a VMN embodied by a
// real routing-protocol implementation connected to a poemd server —
// exactly the paper's "developed routing protocols are embedded in the
// clients". Stdin is the user console for test traffic and inspection.
//
// Usage:
//
//	poem-client -server 127.0.0.1:7000 -id 1 -proto hybrid -beacon 500ms
//
// Console commands:
//
//	send <dst> <text...>   route an application payload to VMN <dst>
//	table                  print the routing table
//	deliveries             print received payloads
//	radios                 print the VMN's current radios
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/vclock"
)

func main() {
	var (
		server = flag.String("server", "127.0.0.1:7000", "poemd client address")
		id     = flag.Uint("id", 1, "VMN id")
		proto  = flag.String("proto", "hybrid", "routing protocol: hybrid|dsdv|aodv|lsr|flooding")
		beacon = flag.Duration("beacon", 500*time.Millisecond, "beacon period (emulated)")
		flow   = flag.Uint("flow", 1, "flow label for test traffic")
	)
	flag.Parse()

	var p routing.Protocol
	switch *proto {
	case "hybrid":
		p = routing.NewHybrid(routing.Config{})
	case "dsdv":
		p = routing.NewDSDV(routing.Config{})
	case "aodv":
		p = routing.NewAODV(routing.Config{})
	case "flooding":
		p = routing.NewFlooding(routing.Config{})
	case "lsr":
		p = routing.NewLSR(routing.Config{})
	default:
		log.Fatalf("poem-client: unknown protocol %q", *proto)
	}

	clk := vclock.NewSystem(1)
	client, err := core.Dial(core.ClientConfig{
		ID:          radio.NodeID(*id),
		Dial:        transport.TCPDialer(*server),
		LocalClock:  clk,
		ResyncEvery: 10 * time.Second,
		OnPacket:    p.HandlePacket,
		OnClose: func(err error) {
			log.Printf("poem-client: connection closed: %v", err)
			os.Exit(1)
		},
	})
	if err != nil {
		log.Fatalf("poem-client: %v", err)
	}
	defer client.Close()
	p.Start(client)
	defer p.Stop()
	ticker := vclock.Every(clk, *beacon, func(vclock.Time) { p.Tick() })
	defer ticker.Stop()

	log.Printf("poem-client: VMN%d running %s against %s (clock offset %v)",
		*id, p.Name(), *server, client.Offset())

	seq := uint32(0)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit":
			return
		case "table":
			entries := p.Table()
			fmt.Printf("# of Routing Entries: %d\n", len(entries))
			for _, e := range entries {
				fmt.Printf("  %s\n", e)
			}
		case "deliveries":
			for _, d := range p.Deliveries() {
				fmt.Printf("  from %v at %v: %q\n", d.From, d.At, d.Payload)
			}
		case "radios":
			fmt.Printf("  %v\n", client.Radios())
		case "send":
			if len(fields) < 3 {
				fmt.Println("usage: send <dst> <text...>")
				continue
			}
			dst, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				fmt.Printf("bad destination %q\n", fields[1])
				continue
			}
			seq++
			payload := []byte(strings.Join(fields[2:], " "))
			if err := p.SendData(radio.NodeID(dst), uint16(*flow), seq, payload); err != nil {
				fmt.Printf("send: %v\n", err)
			}
		default:
			fmt.Println("commands: send <dst> <text> | table | deliveries | radios | quit")
		}
	}
}
