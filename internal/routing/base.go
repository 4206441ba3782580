package routing

import (
	"sync"

	"repro/internal/radio"
	"repro/internal/wire"
)

// ctrlFlow labels routing control traffic so statistics can separate it
// from application flows.
const ctrlFlow uint16 = 0xFFFF

// route is a table row plus freshness bookkeeping.
type route struct {
	Entry
	lastSeen int64 // tick at which the route was last confirmed
}

// dupKey identifies a frame for duplicate suppression.
type dupKey struct {
	origin radio.NodeID
	flow   uint16
	seq    uint32
}

// base carries the state shared by all table-driven protocols. It is
// embedded, with the embedding protocol providing behaviour.
type base struct {
	mu   sync.Mutex
	h    Host
	cfg  Config
	tick int64

	routes map[radio.NodeID]*route
	seen   map[dupKey]int64 // flood/RREQ dedup with tick for pruning
	// heard[n] is the last tick a frame arrived from n — i.e. the
	// n→me direction works. bidir[n] is the last tick n's beacon
	// listed us — i.e. the me→n direction works too. Routes through n
	// are only trusted while both are fresh, which is how the
	// protocols survive the emulator's directional neighbor model
	// (range shrink, Table 2 step 2).
	heard map[radio.NodeID]int64
	bidir map[radio.NodeID]int64
	// nbrChannel remembers which channel a neighbor was last heard on
	// (used by LSR to label links; harmless elsewhere).
	nbrChannel map[radio.NodeID]radio.ChannelID
	deliveries []Delivery
	delivered  map[dupKey]bool
	ctrlSeq    uint32
	ownSeq     uint32 // DSDV-style even destination sequence number
	stopped    bool

	// counters
	nForwarded uint64
	nNoRoute   uint64
}

func newBase(cfg Config) base {
	return base{
		cfg:        cfg.withDefaults(),
		routes:     make(map[radio.NodeID]*route),
		seen:       make(map[dupKey]int64),
		heard:      make(map[radio.NodeID]int64),
		bidir:      make(map[radio.NodeID]int64),
		nbrChannel: make(map[radio.NodeID]radio.ChannelID),
		delivered:  make(map[dupKey]bool),
	}
}

func (b *base) start(h Host) {
	b.mu.Lock()
	b.h = h
	b.mu.Unlock()
}

func (b *base) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
}

// nextCtrlSeq allocates a sequence number for a control broadcast.
func (b *base) nextCtrlSeq() uint32 {
	b.ctrlSeq++
	return b.ctrlSeq
}

// broadcastLocked ships a routing frame on every radio channel.
func (b *base) broadcastLocked(body []byte) {
	if b.h == nil || b.stopped {
		return
	}
	seq := b.nextCtrlSeq()
	for _, ch := range b.h.Channels() {
		b.h.Send(wire.Packet{
			Dst: radio.Broadcast, Channel: ch,
			Flow: ctrlFlow, Seq: seq, Payload: body,
		})
	}
}

// unicastLocked ships a routing frame to a specific neighbor on a
// specific channel, preserving the statistics labels.
func (b *base) unicastLocked(next radio.NodeID, ch radio.ChannelID, flow uint16, seq uint32, body []byte) error {
	if b.h == nil || b.stopped {
		return ErrStopped
	}
	return b.h.Send(wire.Packet{
		Dst: next, Channel: ch, Flow: flow, Seq: seq, Payload: body,
	})
}

// learnLocked installs or refreshes a route if it is fresher or
// shorter. Returns true when the table changed.
func (b *base) learnLocked(e Entry) bool {
	cur, ok := b.routes[e.Dst]
	if ok {
		newer := e.Seq > cur.Seq
		better := e.Seq == cur.Seq && e.Metric < cur.Metric
		if !newer && !better {
			// Refresh freshness when the same route is re-advertised.
			if cur.Next == e.Next && cur.Channel == e.Channel && cur.Metric == e.Metric {
				cur.lastSeen = b.tick
			}
			return false
		}
	}
	b.routes[e.Dst] = &route{Entry: e, lastSeen: b.tick}
	return true
}

// noteHeardLocked records that a frame from n just arrived.
func (b *base) noteHeardLocked(n radio.NodeID) { b.heard[n] = b.tick }

// noteChannelLocked records the channel n was last heard on.
func (b *base) noteChannelLocked(n radio.NodeID, ch radio.ChannelID) {
	b.nbrChannel[n] = ch
}

// heardFreshLocked lists the nodes heard recently, for beacons.
func (b *base) heardFreshLocked() []radio.NodeID {
	out := make([]radio.NodeID, 0, len(b.heard))
	for n, t := range b.heard {
		if b.tick-t < int64(b.cfg.EntryTTLTicks) {
			out = append(out, n)
		}
	}
	return out
}

// confirmBidirLocked processes a beacon's heard-list: if we are in it,
// the me→sender direction is confirmed.
func (b *base) confirmBidirLocked(from radio.NodeID, heard []radio.NodeID) bool {
	me := b.h.ID()
	for _, id := range heard {
		if id == me {
			b.bidir[from] = b.tick
			return true
		}
	}
	return b.tick-b.bidir[from] < int64(b.cfg.EntryTTLTicks) && b.bidir[from] > 0
}

// expireLocked purges routes that have not been refreshed.
func (b *base) expireLocked() {
	for dst, r := range b.routes {
		if b.tick-r.lastSeen >= int64(b.cfg.EntryTTLTicks) {
			delete(b.routes, dst)
		}
	}
	// Prune ancient dedup and link-state memory so it stays bounded.
	for k, t := range b.seen {
		if b.tick-t >= int64(4*b.cfg.EntryTTLTicks) {
			delete(b.seen, k)
		}
	}
	for n, t := range b.heard {
		if b.tick-t >= int64(4*b.cfg.EntryTTLTicks) {
			delete(b.heard, n)
			delete(b.bidir, n)
		}
	}
}

// markSeenLocked reports whether the key was already seen, recording it
// otherwise.
func (b *base) markSeenLocked(k dupKey) bool {
	if _, dup := b.seen[k]; dup {
		return true
	}
	b.seen[k] = b.tick
	return false
}

// deliverLocked records an application payload arrival (once per key).
func (b *base) deliverLocked(f frame, flow uint16, seq uint32) {
	k := dupKey{origin: f.Origin, flow: flow, seq: seq}
	if b.delivered[k] {
		return
	}
	b.delivered[k] = true
	b.deliveries = append(b.deliveries, Delivery{
		From: f.Origin, Flow: flow, Seq: seq,
		Payload: f.Payload, At: b.h.Now(),
	})
}

// tableLocked snapshots the routing table.
func (b *base) tableLocked() []Entry {
	out := make([]Entry, 0, len(b.routes))
	for _, r := range b.routes {
		out = append(out, r.Entry)
	}
	SortEntries(out)
	return out
}

// Table implements Protocol.
func (b *base) Table() []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tableLocked()
}

// Deliveries implements Protocol.
func (b *base) Deliveries() []Delivery {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Delivery(nil), b.deliveries...)
}

// ErrStopped is returned by SendData after Stop.
var ErrStopped = errStopped{}

type errStopped struct{}

func (errStopped) Error() string { return "routing: protocol stopped" }
