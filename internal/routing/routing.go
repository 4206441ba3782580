// Package routing contains real MANET routing-protocol implementations
// — the software under test that PoEm exists to exercise. The paper's
// §6.1 tests "a hybrid MANET routing protocol ... combining the
// periodic-broadcasting and on-demand mechanisms"; this package
// provides that hybrid plus the two mechanisms it combines in isolation
// (a DSDV-style proactive protocol and an AODV-style reactive one) and
// a flooding baseline.
//
// Protocols are written exactly as they would be for deployment: they
// speak to an abstract Host (a radio interface: send a frame, know your
// channels, read a clock) and never to the emulator. core.Client
// satisfies Host, which is the emulation promise — the implementation
// runs unmodified.
package routing

import (
	"fmt"
	"sort"

	"repro/internal/radio"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Host is the node environment a protocol runs on.
type Host interface {
	// ID is this node's address.
	ID() radio.NodeID
	// Now is the node's (synchronized) clock.
	Now() vclock.Time
	// Channels lists the node's current radio channels.
	Channels() []radio.ChannelID
	// Send transmits a frame. Dst may be radio.Broadcast.
	Send(pkt wire.Packet) error
}

// Entry is one routing-table row — what the paper's Table 2 inspects
// in VMN1 ("2 -> 2", "# of Routing Entries", …).
type Entry struct {
	Dst     radio.NodeID
	Next    radio.NodeID
	Channel radio.ChannelID
	Metric  int    // hop count
	Seq     uint32 // destination sequence number (freshness)
}

// String renders the entry in the paper's "dst -> next" style.
func (e Entry) String() string {
	return fmt.Sprintf("%d -> %d (%v, %d hops)", uint32(e.Dst), uint32(e.Next), e.Channel, e.Metric)
}

// SortEntries orders entries by destination for stable display.
func SortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Dst < es[j].Dst })
}

// Protocol is a routing protocol instance bound to one node.
//
// Concurrency contract: HandlePacket is called from the host's receive
// goroutine, Tick from a timer goroutine, and SendData from the
// application; implementations serialize internally.
type Protocol interface {
	// Name identifies the protocol in logs and reports.
	Name() string
	// Start binds the protocol to its host. Must be called first.
	Start(h Host)
	// HandlePacket processes one received frame.
	HandlePacket(pkt wire.Packet)
	// Tick drives periodic behaviour (beacons, expiry). The host calls
	// it on the protocol's beacon cadence.
	Tick()
	// SendData routes an application payload to dst. flow/seq label the
	// packet for statistics and are preserved hop by hop. Reactive
	// protocols may queue the payload and return nil while a route is
	// discovered.
	SendData(dst radio.NodeID, flow uint16, seq uint32, payload []byte) error
	// Table snapshots the routing table, sorted by destination.
	Table() []Entry
	// Deliveries returns the application payloads that reached this
	// node, in arrival order (each at most once).
	Deliveries() []Delivery
	// Stop halts the protocol.
	Stop()
}

// Delivery is an application payload that arrived at its destination.
type Delivery struct {
	From    radio.NodeID // originator
	Flow    uint16
	Seq     uint32
	Payload []byte
	At      vclock.Time
}

// Config carries the tunables shared by the table-driven protocols.
type Config struct {
	// BeaconEvery is the periodic-broadcast interval in Ticks: the
	// runner calls Tick at this cadence, so it is 1 by construction;
	// kept for documentation.
	// EntryTTLTicks is how many ticks a learned entry survives without
	// refresh before it is purged (route staleness from range shrink or
	// channel switch shows up after this many beacons).
	EntryTTLTicks int
	// HorizonHops bounds proactive advertisement (hybrid only): routes
	// longer than this are not advertised and must be found on demand.
	HorizonHops int
	// TTL is the max hop count for flooded/relayed frames.
	TTL int
}

// Defaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.EntryTTLTicks <= 0 {
		c.EntryTTLTicks = 3
	}
	if c.HorizonHops <= 0 {
		c.HorizonHops = 2
	}
	if c.TTL <= 0 {
		c.TTL = 16
	}
	return c
}
