package fidelity

// Packet-lifecycle tracing: a sampled packet is followed through the
// stages of the §3.2 pipeline —
//
//	client stamp → ingest → dispatch resolved → enqueued for a receiver → on the wire
//
// — as stage events on the flight recorder, each keyed by PacketID.
// Nothing travels with the packet: every stage decides for itself
// whether the packet is sampled (Sampler, a hash of fields the packet
// carries anyway) and records its own event, so the schedule, the send
// queues and the trunk carry no trace state, and a packet that leaves
// the pipeline early simply records no later stage. A peer that
// receives a packet over the trunk samples the same packets, so its ring
// holds the remote half of the lifecycle under the same key.
//
// Lifecycles reassembles the stage events of a snapshot into one record
// per packet; /trace serves them as JSON and WriteTrace draws them as
// spans.

// PacketID is the key every stage event of one packet carries in A:
// its source VMN and sequence number.
func PacketID(src, seq uint32) int64 { return int64(uint64(src)<<32 | uint64(seq)) }

// Sampler picks the traced packets: a packet is sampled when a hash of
// its source, sequence number and stamp falls below the threshold. The
// choice is a pure function of the packet, so every stage, shard and
// peer agrees on it without being told. The zero Sampler samples
// nothing.
type Sampler uint64

// NewSampler samples about one packet in every (all when every is 1,
// none when every ≤ 0).
func NewSampler(every int) Sampler {
	if every <= 0 {
		return 0
	}
	return Sampler((1<<32 + uint64(every) - 1) / uint64(every))
}

// Sampled reports whether the packet (src, seq, stamp) is traced. The
// stamp is the one the schedule carries: after the ingest clamp.
func (s Sampler) Sampled(src, seq uint32, stamp int64) bool {
	h := (uint64(src)<<32 | uint64(seq)) ^ uint64(stamp)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h>>32 < uint64(s)
}

// Lifecycle is one sampled packet's passage through a server. A record
// assembled on the peer that received the packet over the trunk has no
// ingest stages; one whose early events the ring already overwrote has
// zeros there too.
type Lifecycle struct {
	Src uint32 `json:"src"`
	Seq uint32 `json:"seq"`
	// Stage timestamps, emulation-clock ns.
	Stamp   int64 `json:"stamp"`   // the client's parallel send stamp (clamped)
	Ingest  int64 `json:"ingest"`  // the server received the packet
	Resolve int64 `json:"resolve"` // dispatch view read and link model rolled
	// Matched receivers were in range; Kept survived the link model.
	Matched int   `json:"matched"`
	Kept    int   `json:"kept"`
	Legs    []Leg `json:"legs"`
}

// Leg is the packet's way to one receiver. A leg enqueued and never
// sent was dropped by the send queue or died with its session.
type Leg struct {
	To      uint32 `json:"to"`
	Enqueue int64  `json:"enqueue"` // the scanner handed it to the receiver's send queue
	Send    int64  `json:"send"`    // the writer put it on the wire
}

// Complete reports whether every stage of the record, and of each of
// its legs, was recorded.
func (l *Lifecycle) Complete() bool {
	if l.Stamp == 0 || l.Ingest == 0 || l.Resolve == 0 || len(l.Legs) == 0 {
		return false
	}
	for _, g := range l.Legs {
		if g.Enqueue == 0 || g.Send == 0 {
			return false
		}
	}
	return true
}

// Lifecycles assembles the packet stage events of a snapshot (in Seq
// order, as Snapshot returns them) into one record per packet, in the
// order the packets first appear. An ingest event opens a new record,
// so a source that reuses a sequence number gets one record per
// packet; later stages join the newest record under their key.
func Lifecycles(events []Event) []Lifecycle {
	out := []Lifecycle{}
	open := make(map[int64]int) // PacketID → index in out
	for _, ev := range events {
		if ev.Kind < EvPktIngest || ev.Kind > EvPktSend {
			continue
		}
		i, ok := open[ev.A]
		if !ok || ev.Kind == EvPktIngest {
			i = len(out)
			out = append(out, Lifecycle{Src: uint32(uint64(ev.A) >> 32), Seq: uint32(ev.A)})
			open[ev.A] = i
		}
		l := &out[i]
		switch ev.Kind {
		case EvPktIngest:
			l.Ingest, l.Stamp = ev.At, ev.B
		case EvPktResolve:
			l.Resolve, l.Kept, l.Matched = ev.At, int(ev.B>>32), int(uint32(ev.B))
		case EvPktEnqueue:
			l.leg(uint32(ev.B)).Enqueue = ev.At
		case EvPktSend:
			l.leg(uint32(ev.B)).Send = ev.At
		}
	}
	return out
}

// leg returns the record's leg to receiver to, adding it if new.
func (l *Lifecycle) leg(to uint32) *Leg {
	for i := range l.Legs {
		if l.Legs[i].To == to {
			return &l.Legs[i]
		}
	}
	l.Legs = append(l.Legs, Leg{To: to})
	return &l.Legs[len(l.Legs)-1]
}
