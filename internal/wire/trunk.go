// Trunk frames: the server-to-server protocol of a federated cluster.
//
// When N poemd peers jointly own one scene, cross-server deliveries and
// replicated scene mutations ride persistent trunk connections between
// peers. Trunks speak the same length-prefixed framing as clients (one
// listener serves both; the first frame decides which protocol the
// connection is), with four extra message types:
//
//	TrunkHello   peer handshake: protocol version, peer and coordinator index, seed, cluster id
//	TrunkBatch   a batch of already-scheduled deliveries for remote nodes
//	TrunkScene   scene journal records, or a part of a scene snapshot, from the coordinator
//	TrunkStatus  periodic peer status: health, replication point, scene digest, resend request
//
// TrunkBatch is the hot path. It carries deliveries after ingest has
// resolved neighbors and link models at the sending peer, so the
// receiving peer only schedules and fires them — the batched shape
// mirrors the coalesced per-shard pushes inside one server, and the
// pooled read path aliases every payload out of a single frame buffer.
package wire

import (
	"encoding/binary"
	"sync"

	"repro/internal/radio"
	"repro/internal/vclock"
)

// Trunk frame types, continuing the client protocol's numbering.
const (
	TypeTrunkHello  Type = iota + 8 // peer → peer: trunk handshake
	TypeTrunkBatch                  // peer → peer: batched remote deliveries
	TypeTrunkScene                  // coordinator → peer: journal records or a snapshot part
	TypeTrunkStatus                 // peer → peer: health, applied seq, digest
)

// MaxTrunkEntries bounds the deliveries one TrunkBatch may carry; the
// decoder rejects larger counts as corrupt before allocating.
const MaxTrunkEntries = 4096

// TrunkHello opens a trunk: the dialing peer identifies itself, the
// cluster it believes it belongs to, the peer it takes for the
// coordinator and its link-model seed. A receiver that disagrees about
// any of them (or Ver) answers Bye and closes.
type TrunkHello struct {
	Ver         uint16
	From        uint32 // dialing peer's index in the cluster peer list
	Coordinator uint32 // the coordinator's index, as the dialing peer is configured
	Seed        int64  // the dialing peer's link-model seed; must match on both ends
	Cluster     string // cluster identity; must match on both ends
}

// Type implements Msg.
func (TrunkHello) Type() Type { return TypeTrunkHello }

func (m TrunkHello) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.Ver)
	b = binary.BigEndian.AppendUint32(b, m.From)
	b = binary.BigEndian.AppendUint32(b, m.Coordinator)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Seed))
	return append(b, m.Cluster...)
}

// readBody decodes only Ver from another version's hello, whose layout
// may differ, so that the receiver can still refuse it by name.
func (m *TrunkHello) readBody(b []byte) error {
	if len(b) < 2 {
		return ErrShortBody
	}
	if m.Ver = binary.BigEndian.Uint16(b); m.Ver != Version {
		return nil
	}
	if len(b) < 18 {
		return ErrShortBody
	}
	m.From = binary.BigEndian.Uint32(b[2:])
	m.Coordinator = binary.BigEndian.Uint32(b[6:])
	m.Seed = int64(binary.BigEndian.Uint64(b[10:]))
	m.Cluster = string(b[18:])
	return nil
}

// TrunkEntry is one scheduled delivery in flight between peers: the
// receiving peer pushes it into the schedule of the shard owning To.
// Due and Stamp are emulation-clock times, meaningful on both ends
// because all peers sync to the same emulation timebase.
type TrunkEntry struct {
	Due vclock.Time  // when the delivery fires
	To  radio.NodeID // destination session (owned by the receiving peer)
	Pkt Packet
}

// trunkEntryFixed is the encoded size of an entry's fixed fields.
const trunkEntryFixed = 8 + 4 + 4 + 4 + 2 + 2 + 4 + 8 + 4

// TrunkBatch carries a batch of scheduled deliveries to one peer. Like
// Data it has a pooled form: on the wire-read side every entry's
// payload aliases the single frame buffer, with one Buf reference per
// entry; consumers transfer entries into their schedule (clearing the
// slice) and retire the wrapper with ReleaseTrunkBatch, which frees the
// references of any entries still present.
type TrunkBatch struct {
	Entries []TrunkEntry

	pooled bool
}

// Type implements Msg.
func (TrunkBatch) Type() Type { return TypeTrunkBatch }

func (m TrunkBatch) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		b = binary.BigEndian.AppendUint64(b, uint64(e.Due))
		b = binary.BigEndian.AppendUint32(b, uint32(e.To))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Pkt.Src))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Pkt.Dst))
		b = binary.BigEndian.AppendUint16(b, uint16(e.Pkt.Channel))
		b = binary.BigEndian.AppendUint16(b, e.Pkt.Flow)
		b = binary.BigEndian.AppendUint32(b, e.Pkt.Seq)
		b = binary.BigEndian.AppendUint64(b, uint64(e.Pkt.Stamp))
		b = binary.BigEndian.AppendUint32(b, uint32(len(e.Pkt.Payload)))
		b = append(b, e.Pkt.Payload...)
	}
	return b
}

// parseBody decodes entries with payloads still aliasing b; the caller
// decides whether to copy them.
func (m *TrunkBatch) parseBody(b []byte) error {
	if len(b) < 2 {
		return ErrShortBody
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > MaxTrunkEntries {
		return ErrBadPayloadLen
	}
	b = b[2:]
	if cap(m.Entries) < n {
		m.Entries = make([]TrunkEntry, n)
	} else {
		m.Entries = m.Entries[:n]
	}
	for i := 0; i < n; i++ {
		if len(b) < trunkEntryFixed {
			m.Entries = m.Entries[:0]
			return ErrShortBody
		}
		e := &m.Entries[i]
		e.Due = vclock.Time(binary.BigEndian.Uint64(b))
		e.To = radio.NodeID(binary.BigEndian.Uint32(b[8:]))
		e.Pkt.Src = radio.NodeID(binary.BigEndian.Uint32(b[12:]))
		e.Pkt.Dst = radio.NodeID(binary.BigEndian.Uint32(b[16:]))
		e.Pkt.Channel = radio.ChannelID(binary.BigEndian.Uint16(b[20:]))
		e.Pkt.Flow = binary.BigEndian.Uint16(b[22:])
		e.Pkt.Seq = binary.BigEndian.Uint32(b[24:])
		e.Pkt.Stamp = vclock.Time(binary.BigEndian.Uint64(b[28:]))
		plen := binary.BigEndian.Uint32(b[36:])
		if plen > MaxPayload {
			m.Entries = m.Entries[:0]
			return ErrBadPayloadLen
		}
		if len(b) < trunkEntryFixed+int(plen) {
			m.Entries = m.Entries[:0]
			return ErrShortBody
		}
		e.Pkt.Payload = b[trunkEntryFixed : trunkEntryFixed+plen]
		e.Pkt.Buf = nil
		b = b[trunkEntryFixed+int(plen):]
	}
	if len(b) != 0 {
		m.Entries = m.Entries[:0]
		return ErrShortBody
	}
	return nil
}

func (m *TrunkBatch) readBody(b []byte) error {
	if err := m.parseBody(b); err != nil {
		return err
	}
	for i := range m.Entries {
		e := &m.Entries[i]
		e.Pkt.Payload = append([]byte(nil), e.Pkt.Payload...)
	}
	return nil
}

// TrunkScene carries scene state from the coordinator's journal, in
// bytes only package scene encodes and decodes: whole journal records
// from seq Seq on, or (Snapshot) one part of the scene's state taken at
// journal seq Seq. Origin names the coordinator's journal: a restarted
// coordinator draws a new one.
type TrunkScene struct {
	Origin   uint64
	Seq      uint64
	Snapshot bool
	Data     []byte
}

// Type implements Msg.
func (TrunkScene) Type() Type { return TypeTrunkScene }

func (m TrunkScene) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, m.Origin), m.Seq)
	return append(append(b, boolByte(m.Snapshot)), m.Data...)
}

func (m *TrunkScene) readBody(b []byte) error {
	if len(b) < 17 || b[16] > 1 {
		return ErrShortBody
	}
	m.Origin, m.Seq = binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])
	m.Snapshot = b[16] == 1
	m.Data = append([]byte(nil), b[17:]...)
	return nil
}

// TrunkStatus is the periodic peer heartbeat: health state (a
// fidelity.State value), the sender's replication point and scene digest
// there, and its emulation clock at send. A follower's replication point
// is the journal it follows (Origin) and the seq it applied there, and
// Resend asks the coordinator to send again from the next seq — or a
// snapshot, when Origin is not the coordinator's. The coordinator's is
// its journal and the last seq it sent the receiving peer (Origin 0:
// nothing yet).
type TrunkStatus struct {
	From       uint32
	Health     uint8
	Resend     bool
	Origin     uint64
	AppliedSeq uint64
	Digest     uint64
	Now        vclock.Time
}

// Type implements Msg.
func (TrunkStatus) Type() Type { return TypeTrunkStatus }

func (m TrunkStatus) appendBody(b []byte) []byte {
	b = append(binary.BigEndian.AppendUint32(b, m.From), m.Health, boolByte(m.Resend))
	b = binary.BigEndian.AppendUint64(b, m.Origin)
	b = binary.BigEndian.AppendUint64(b, m.AppliedSeq)
	b = binary.BigEndian.AppendUint64(b, m.Digest)
	return binary.BigEndian.AppendUint64(b, uint64(m.Now))
}

func (m *TrunkStatus) readBody(b []byte) error {
	if len(b) != 38 || b[5] > 1 {
		return ErrShortBody
	}
	m.From = binary.BigEndian.Uint32(b)
	m.Health, m.Resend = b[4], b[5] == 1
	m.Origin = binary.BigEndian.Uint64(b[6:])
	m.AppliedSeq = binary.BigEndian.Uint64(b[14:])
	m.Digest = binary.BigEndian.Uint64(b[22:])
	m.Now = vclock.Time(binary.BigEndian.Uint64(b[30:]))
	return nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Pooled TrunkBatch wrappers
//
// The same ownership contract as pooled *Data, generalized to a batch:
// every entry present in Entries owns one reference of its Pkt.Buf.
// transport.Conn.Send consumes the whole wrapper (TCP releases after
// serializing, the in-process pipe transfers it); a receiver moves
// entries into its schedule — transferring their references — truncates
// Entries to what it did not consume, and calls ReleaseTrunkBatch.

// trunkBatchPool recycles TrunkBatch wrappers, Entries backing array
// included, so steady-state trunk sends allocate nothing.
var trunkBatchPool = sync.Pool{New: func() interface{} { return new(TrunkBatch) }}

// AcquireTrunkBatch returns an empty pooled TrunkBatch. Sending it on a
// transport.Conn consumes it; otherwise balance with ReleaseTrunkBatch.
func AcquireTrunkBatch() *TrunkBatch {
	tb := trunkBatchPool.Get().(*TrunkBatch)
	tb.Entries = tb.Entries[:0]
	tb.pooled = true
	return tb
}

// ReleaseTrunkBatch retires a pooled TrunkBatch: one Buf reference is
// freed per entry still in Entries, and the wrapper returns to the
// pool. No-op for nil or unpooled wrappers.
func ReleaseTrunkBatch(m *TrunkBatch) {
	if m == nil || !m.pooled {
		return
	}
	m.pooled = false
	for i := range m.Entries {
		m.Entries[i].Pkt.Buf.Free()
		m.Entries[i].Pkt = Packet{}
	}
	m.Entries = m.Entries[:0]
	trunkBatchPool.Put(m)
}
