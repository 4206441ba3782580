// Package wire defines PoEm's TCP/IP wire protocol: the framing and
// message codec spoken between emulation clients and the emulation
// server (paper §3, Figure 4). Everything a client sends — registration,
// clock-sync exchanges, emulated data packets — travels as a length-
// prefixed frame over a byte stream, so the protocol is independent of
// the platform underneath, which is what makes the emulator "portable".
//
// Frame layout (big endian):
//
//	uint32  body length (type byte included)
//	uint8   message type
//	[]byte  message body
//
// Data frames carry the emulated MANET packet together with the
// client-side emulation-clock timestamp — the parallel time-stamping
// that distinguishes PoEm from serial, server-stamped designs.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// Version is the protocol version carried in Hello and TrunkHello frames;
// a peer or client of another version is refused at the hello. Version
// 2 carries scene replication as journal bytes and snapshots, with the
// coordinator's index in TrunkHello and digests in TrunkStatus; version
// 3 adds the link-model seed to TrunkHello.
const Version uint16 = 3

// MaxFrame bounds a frame body; larger frames are rejected as corrupt.
const MaxFrame = 1 << 20

// MaxPayload bounds an emulated packet's payload.
const MaxPayload = 64 << 10

// Type tags a frame.
type Type uint8

// Frame types.
const (
	TypeInvalid   Type = iota
	TypeHello          // client → server: register as a VMN
	TypeHelloAck       // server → client: assigned node ID
	TypeSyncReq        // client → server: Figure 5 step 1
	TypeSyncReply      // server → client: Figure 5 step 3
	TypeData           // either direction: an emulated packet
	TypeEvent          // server → client: scene notification
	TypeBye            // either direction: orderly shutdown
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeHelloAck:
		return "HelloAck"
	case TypeSyncReq:
		return "SyncReq"
	case TypeSyncReply:
		return "SyncReply"
	case TypeData:
		return "Data"
	case TypeEvent:
		return "Event"
	case TypeBye:
		return "Bye"
	case TypeTrunkHello:
		return "TrunkHello"
	case TypeTrunkBatch:
		return "TrunkBatch"
	case TypeTrunkScene:
		return "TrunkScene"
	case TypeTrunkStatus:
		return "TrunkStatus"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrShortBody     = errors.New("wire: truncated message body")
	ErrUnknownType   = errors.New("wire: unknown frame type")
	ErrBadPayloadLen = errors.New("wire: payload length exceeds MaxPayload")
)

// Msg is any protocol message. Value and pointer forms both satisfy
// it, except for Data, which only a pointer does; ReadMsg always
// returns pointers.
type Msg interface {
	Type() Type
	// appendBody serializes the message body onto b.
	appendBody(b []byte) []byte
}

// Hello registers the client as a virtual MANET node. ProposedID may be
// radio.Broadcast to let the server assign an ID.
type Hello struct {
	Ver        uint16
	ProposedID radio.NodeID
}

// Type implements Msg.
func (Hello) Type() Type { return TypeHello }

func (m Hello) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, m.Ver)
	return binary.BigEndian.AppendUint32(b, uint32(m.ProposedID))
}

func (m *Hello) readBody(b []byte) error {
	if len(b) != 6 {
		return ErrShortBody
	}
	m.Ver = binary.BigEndian.Uint16(b)
	m.ProposedID = radio.NodeID(binary.BigEndian.Uint32(b[2:]))
	return nil
}

// HelloAck confirms registration.
type HelloAck struct {
	Assigned  radio.NodeID
	ServerNow vclock.Time // coarse first estimate before real sync
}

// Type implements Msg.
func (HelloAck) Type() Type { return TypeHelloAck }

func (m HelloAck) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(m.Assigned))
	return binary.BigEndian.AppendUint64(b, uint64(m.ServerNow))
}

func (m *HelloAck) readBody(b []byte) error {
	if len(b) != 12 {
		return ErrShortBody
	}
	m.Assigned = radio.NodeID(binary.BigEndian.Uint32(b))
	m.ServerNow = vclock.Time(binary.BigEndian.Uint64(b[4:]))
	return nil
}

// SyncReq is Figure 5 step 1: the client's local clock reading tc1.
type SyncReq struct {
	TC1 vclock.Time
}

// Type implements Msg.
func (SyncReq) Type() Type { return TypeSyncReq }

func (m SyncReq) appendBody(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(m.TC1))
}

func (m *SyncReq) readBody(b []byte) error {
	if len(b) != 8 {
		return ErrShortBody
	}
	m.TC1 = vclock.Time(binary.BigEndian.Uint64(b))
	return nil
}

// SyncReply is Figure 5 step 3. The paper's reply carries ts3 and
// (tc1+ts3-ts2); we carry tc1, ts2 and ts3 explicitly — the same
// information, but the client can additionally validate causality.
type SyncReply struct {
	TC1, TS2, TS3 vclock.Time
}

// Type implements Msg.
func (SyncReply) Type() Type { return TypeSyncReply }

func (m SyncReply) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(m.TC1))
	b = binary.BigEndian.AppendUint64(b, uint64(m.TS2))
	return binary.BigEndian.AppendUint64(b, uint64(m.TS3))
}

func (m *SyncReply) readBody(b []byte) error {
	if len(b) != 24 {
		return ErrShortBody
	}
	m.TC1 = vclock.Time(binary.BigEndian.Uint64(b))
	m.TS2 = vclock.Time(binary.BigEndian.Uint64(b[8:]))
	m.TS3 = vclock.Time(binary.BigEndian.Uint64(b[16:]))
	return nil
}

// Packet is one emulated MANET packet.
type Packet struct {
	Src     radio.NodeID
	Dst     radio.NodeID // radio.Broadcast for channel-wide broadcast
	Channel radio.ChannelID
	Flow    uint16 // traffic-flow label, used by statistics
	Seq     uint32
	Stamp   vclock.Time // client emulation clock at send (parallel stamp)
	Payload []byte

	// Buf, when non-nil, is the pooled buffer backing Payload (a pooled
	// transport read aliases the payload straight out of the frame
	// buffer instead of copying it). It rides along as the packet fans
	// out through the forwarding pipeline; whoever retires a copy of the
	// packet frees one reference. Buf is ownership metadata, not wire
	// content — the codec neither serializes nor restores it.
	Buf *mbuf.Buf
}

// Size returns the emulated packet size in bytes used by the bandwidth
// term of the link model: header overhead plus payload.
func (p Packet) Size() int { return packetHeaderSize + len(p.Payload) }

// packetHeaderSize approximates the over-the-air header of the emulated
// MAC/IP encapsulation.
const packetHeaderSize = 28

// Data carries an emulated packet.
type Data struct {
	Pkt Packet

	// pooled marks a wrapper obtained from AcquireData, AcquireShared or
	// a pooled read; ReleaseData recycles only those, so plain &Data{}
	// literals keep working everywhere without ownership obligations. A
	// retired wrapper stays marked, so a release past its last holder
	// panics.
	pooled bool
	// holders counts the owners still to release a pooled wrapper: one,
	// or every receiver of a fired fan (AcquireShared).
	holders atomic.Int32
}

// Type implements Msg. Data's methods take a pointer: a value copy
// would read the holder count that other holders update.
func (*Data) Type() Type { return TypeData }

func (m *Data) appendBody(b []byte) []byte {
	p := &m.Pkt
	b = binary.BigEndian.AppendUint32(b, uint32(p.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(p.Dst))
	b = binary.BigEndian.AppendUint16(b, uint16(p.Channel))
	b = binary.BigEndian.AppendUint16(b, p.Flow)
	b = binary.BigEndian.AppendUint32(b, p.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(p.Stamp))
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.Payload)))
	return append(b, p.Payload...)
}

// dataFixed is the encoded size of a Data body's fixed fields (the
// payload bytes follow).
const dataFixed = 4 + 4 + 2 + 2 + 4 + 8 + 4

// parseBody decodes the fixed fields and returns the payload bytes
// still aliasing b; the caller decides whether to copy them.
func (m *Data) parseBody(b []byte) ([]byte, error) {
	if len(b) < dataFixed {
		return nil, ErrShortBody
	}
	p := &m.Pkt
	p.Src = radio.NodeID(binary.BigEndian.Uint32(b))
	p.Dst = radio.NodeID(binary.BigEndian.Uint32(b[4:]))
	p.Channel = radio.ChannelID(binary.BigEndian.Uint16(b[8:]))
	p.Flow = binary.BigEndian.Uint16(b[10:])
	p.Seq = binary.BigEndian.Uint32(b[12:])
	p.Stamp = vclock.Time(binary.BigEndian.Uint64(b[16:]))
	n := binary.BigEndian.Uint32(b[24:])
	if n > MaxPayload {
		return nil, ErrBadPayloadLen
	}
	if len(b) != dataFixed+int(n) {
		return nil, ErrShortBody
	}
	return b[dataFixed:], nil
}

func (m *Data) readBody(b []byte) error {
	payload, err := m.parseBody(b)
	if err != nil {
		return err
	}
	m.Pkt.Payload = append([]byte(nil), payload...)
	return nil
}

// readBodyRef is readBody without the payload copy: Payload aliases b.
// Only DecodeFrameRef uses it, where b is pool memory the resulting
// message holds a reference on.
func (m *Data) readBodyRef(b []byte) error {
	payload, err := m.parseBody(b)
	if err != nil {
		return err
	}
	m.Pkt.Payload = payload
	return nil
}

// EventKind enumerates scene notifications the server pushes to a
// client about its own VMN.
type EventKind uint8

// Event kinds.
const (
	EventRadios EventKind = iota + 1 // the VMN's radio set changed
	EventMoved                       // the VMN was moved by the operator
	EventPaused                      // emulation paused/resumed (Arg: 0/1)
)

// Event notifies a client of a scene change affecting it. The fields
// are a compact generic encoding: Kind selects the meaning of Arg and
// Radios.
type Event struct {
	Kind   EventKind
	Arg    int64
	Radios []radio.Radio // for EventRadios
}

// Type implements Msg.
func (Event) Type() Type { return TypeEvent }

func (m Event) appendBody(b []byte) []byte {
	b = append(b, byte(m.Kind))
	b = binary.BigEndian.AppendUint64(b, uint64(m.Arg))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Radios)))
	for _, r := range m.Radios {
		b = binary.BigEndian.AppendUint16(b, uint16(r.Channel))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Range))
	}
	return b
}

func (m *Event) readBody(b []byte) error {
	if len(b) < 11 {
		return ErrShortBody
	}
	m.Kind = EventKind(b[0])
	m.Arg = int64(binary.BigEndian.Uint64(b[1:]))
	n := int(binary.BigEndian.Uint16(b[9:]))
	if len(b) != 11+n*10 {
		return ErrShortBody
	}
	m.Radios = make([]radio.Radio, n)
	for i := 0; i < n; i++ {
		off := 11 + i*10
		m.Radios[i].Channel = radio.ChannelID(binary.BigEndian.Uint16(b[off:]))
		m.Radios[i].Range = math.Float64frombits(binary.BigEndian.Uint64(b[off+2:]))
	}
	return nil
}

// Bye announces an orderly shutdown.
type Bye struct {
	Reason string
}

// Type implements Msg.
func (Bye) Type() Type { return TypeBye }

func (m Bye) appendBody(b []byte) []byte { return append(b, m.Reason...) }

func (m *Bye) readBody(b []byte) error {
	m.Reason = string(b)
	return nil
}

// ---------------------------------------------------------------------------
// Framing

// WriteMsg frames and writes one message. It is not safe for concurrent
// writers; callers serialize (the transport layer does).
func WriteMsg(w io.Writer, m Msg) error {
	body := m.appendBody(make([]byte, 0, 64))
	if len(body)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = byte(m.Type())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadMsg reads and decodes one message. io.EOF is returned untouched
// on a clean end of stream between frames; a stream cut mid-frame
// yields io.ErrUnexpectedEOF.
func ReadMsg(r io.Reader) (Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrShortBody
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return DecodeFrame(buf)
}

// DecodeFrame decodes one frame already in memory: the type byte and
// body that follow the length prefix. Every decoded field is copied out
// of frame, so the caller may reuse it at once.
func DecodeFrame(frame []byte) (Msg, error) {
	if len(frame) == 0 {
		return nil, ErrShortBody
	}
	return decodeBody(Type(frame[0]), frame[1:])
}

// decodeBody decodes one message body of the given type. Every decoded
// field is copied out of b.
func decodeBody(t Type, body []byte) (Msg, error) {
	var (
		m    Msg
		perr error
	)
	switch t {
	case TypeHello:
		v := &Hello{}
		perr, m = v.readBody(body), v
	case TypeHelloAck:
		v := &HelloAck{}
		perr, m = v.readBody(body), v
	case TypeSyncReq:
		v := &SyncReq{}
		perr, m = v.readBody(body), v
	case TypeSyncReply:
		v := &SyncReply{}
		perr, m = v.readBody(body), v
	case TypeData:
		v := &Data{}
		perr, m = v.readBody(body), v
	case TypeEvent:
		v := &Event{}
		perr, m = v.readBody(body), v
	case TypeBye:
		v := &Bye{}
		perr, m = v.readBody(body), v
	case TypeTrunkHello:
		v := &TrunkHello{}
		perr, m = v.readBody(body), v
	case TypeTrunkBatch:
		v := &TrunkBatch{}
		perr, m = v.readBody(body), v
	case TypeTrunkScene:
		v := &TrunkScene{}
		perr, m = v.readBody(body), v
	case TypeTrunkStatus:
		v := &TrunkStatus{}
		perr, m = v.readBody(body), v
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if perr != nil {
		return nil, perr
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Pooled messages and allocation-free framing
//
// The steady-state forwarding path must not allocate (see internal/
// mbuf). Three pieces make the codec cooperate: pooled *Data wrappers
// (AcquireData/ReleaseData) so the per-send `&Data{}` disappears,
// AppendFrame so a frame serializes into a caller-owned scratch buffer
// instead of WriteMsg's per-call body slice, and DecodeFrameRef (with
// ReadMsgPooled over it) so an inbound frame in a pooled buffer becomes
// a Data message whose payload aliases that buffer instead of copying.
//
// Ownership contract: a pooled *Data is consumed by transport.Conn.Send
// (the TCP transport releases it after serializing; the in-process
// transport transfers it to the receiver, who releases it after
// processing). ReleaseData frees the packet's Buf reference along with
// the wrapper, and is a no-op for plain &Data{} literals.
//
// A pooled *Data has holders, each of which releases it exactly once:
// AcquireData and DecodeFrameRef make one, and AcquireShared makes one
// per receiver of a fired fan, which all get the same pointer. A
// received *Data may therefore be shared with other receivers, so it is
// read-only to every one of them. The wrapper and its one buffer
// reference retire at the last release.

// dataPool recycles Data wrappers across the whole process — the
// server's writers put wrappers in, transport readers and handlers take
// them out, so in-process transports recycle end to end.
var dataPool = sync.Pool{New: func() interface{} { return new(Data) }}

// AcquireData returns a pooled Data wrapper carrying p, with one holder.
// Sending it on a transport.Conn consumes it; otherwise balance with
// ReleaseData.
func AcquireData(p Packet) *Data { return AcquireShared(p, 1) }

// AcquireShared returns a pooled Data wrapper carrying p for holders
// owners, each of which sends or releases it once. The wrapper owns one
// reference of p.Buf, whoever releases last. A shared wrapper is
// read-only: every holder sees the same Pkt.
func AcquireShared(p Packet, holders int) *Data {
	d := dataPool.Get().(*Data)
	d.Pkt = p
	d.pooled = true
	d.holders.Store(int32(holders))
	return d
}

// ReleaseData drops one holder of a pooled Data. The last one retires
// it: one reference of the packet's Buf is freed and the wrapper returns
// to the pool. Releasing a retired wrapper panics, as an mbuf double
// free does. No-op for nil or unpooled wrappers, so every receive path
// can call it unconditionally. The caller must not touch the message
// afterwards.
func ReleaseData(m *Data) {
	if m == nil || !m.pooled {
		return
	}
	switch h := m.holders.Add(-1); {
	case h > 0:
	case h == 0:
		m.Pkt.Buf.Free()
		m.Pkt = Packet{}
		dataPool.Put(m)
	default:
		panic("wire: Data released past its last holder")
	}
}

// ReleaseMsg retires pooled messages behind a type switch, for call
// sites that hold a Msg: pooled Data and TrunkBatch wrappers are
// retired, everything else is untouched.
func ReleaseMsg(m Msg) {
	switch v := m.(type) {
	case *Data:
		ReleaseData(v)
	case *TrunkBatch:
		ReleaseTrunkBatch(v)
	}
}

// AppendFrame appends m's complete framed encoding (length prefix,
// type byte, body) to dst and returns the extended slice. On error dst
// is returned truncated to its original length.
func AppendFrame(dst []byte, m Msg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type()))
	dst = m.appendBody(dst)
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// AppendDataFrame appends a Data frame up to but excluding the payload
// bytes, which the caller transmits from p.Payload directly (vectored
// writes: the writev path coalesces small frames and references big
// payloads in place). The length prefix accounts for the payload.
func AppendDataFrame(dst []byte, p *Packet) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+dataFixed+len(p.Payload)))
	dst = append(dst, byte(TypeData))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Src))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Dst))
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Channel))
	dst = binary.BigEndian.AppendUint16(dst, p.Flow)
	dst = binary.BigEndian.AppendUint32(dst, p.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Stamp))
	return binary.BigEndian.AppendUint32(dst, uint32(len(p.Payload)))
}

// Alloc supplies buffers to ReadMsgPooled; *mbuf.Pool and *mbuf.Local
// both satisfy it.
type Alloc interface {
	Alloc(n int) *mbuf.Buf
}

// ReadMsgPooled is ReadMsg with the frame read into a pooled buffer
// from a and decoded in place by DecodeFrameRef.
func ReadMsgPooled(r io.Reader, a Alloc) (Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrShortBody
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := a.Alloc(int(n))
	frame := buf.Bytes()
	if _, err := io.ReadFull(r, frame); err != nil {
		buf.Free()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return DecodeFrameRef(frame, buf)
}

// DecodeFrameRef is DecodeFrame for a frame lying in buf's memory, and
// it consumes one reference on buf, on every path. A Data payload
// aliases frame — no copy — and the returned message is pooled, with
// one holder: Pkt.Buf holds that reference and the receiver retires the
// message with
// ReleaseData (or consumes it via a transport Send). A TrunkBatch's
// entries alias it too, each owning one reference (the rest are added
// here). Every other type decodes by copy and the reference is freed
// before returning.
func DecodeFrameRef(frame []byte, buf *mbuf.Buf) (Msg, error) {
	if len(frame) == 0 {
		buf.Free()
		return nil, ErrShortBody
	}
	if Type(frame[0]) == TypeData {
		d := dataPool.Get().(*Data)
		if err := d.readBodyRef(frame[1:]); err != nil {
			d.Pkt = Packet{}
			dataPool.Put(d)
			buf.Free()
			return nil, err
		}
		d.Pkt.Buf = buf
		d.pooled = true
		d.holders.Store(1)
		return d, nil
	}
	if Type(frame[0]) == TypeTrunkBatch {
		tb := trunkBatchPool.Get().(*TrunkBatch)
		if err := tb.parseBody(frame[1:]); err != nil {
			trunkBatchPool.Put(tb)
			buf.Free()
			return nil, err
		}
		// Every entry aliases the one frame buffer and owns one of its
		// references, so entries can retire independently as the
		// receiver schedules (or abandons) them.
		if n := len(tb.Entries); n == 0 {
			buf.Free()
		} else {
			if n > 1 {
				buf.Retain(n - 1)
			}
			for i := range tb.Entries {
				tb.Entries[i].Pkt.Buf = buf
			}
		}
		tb.pooled = true
		return tb, nil
	}
	m, err := DecodeFrame(frame)
	buf.Free() // non-Data bodies copy what they keep
	return m, err
}
