package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/vclock"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, m); err != nil {
		t.Fatalf("WriteMsg(%v): %v", m.Type(), err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatalf("ReadMsg(%v): %v", m.Type(), err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Msg{
		&Hello{Ver: Version, ProposedID: 42},
		&Hello{Ver: Version, ProposedID: radio.Broadcast},
		&HelloAck{Assigned: 7, ServerNow: vclock.FromSeconds(12.5)},
		&SyncReq{TC1: vclock.FromMillis(999)},
		&SyncReply{TC1: 1, TS2: 2, TS3: 3},
		&Data{Pkt: Packet{
			Src: 1, Dst: 2, Channel: 3, Flow: 4, Seq: 5,
			Stamp: vclock.FromSeconds(1.25), Payload: []byte("hello manet"),
		}},
		&Data{Pkt: Packet{Src: 9, Dst: radio.Broadcast, Channel: 1}},
		&Event{Kind: EventRadios, Arg: -3, Radios: []radio.Radio{{Channel: 5, Range: 123.5}, {Channel: 2, Range: 0}}},
		&Event{Kind: EventPaused, Arg: 1},
		&Bye{Reason: "test over"},
		&Bye{},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// Normalize nil vs empty slices before comparing.
		if d, ok := got.(*Data); ok && len(d.Pkt.Payload) == 0 {
			d.Pkt.Payload = nil
		}
		if e, ok := got.(*Event); ok && len(e.Radios) == 0 {
			e.Radios = nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Type(), got, m)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeHello: "Hello", TypeHelloAck: "HelloAck", TypeSyncReq: "SyncReq",
		TypeSyncReply: "SyncReply", TypeData: "Data", TypeEvent: "Event",
		TypeBye: "Bye", Type(99): "Type(99)",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
	}
}

func TestPacketSize(t *testing.T) {
	p := Packet{Payload: make([]byte, 100)}
	if p.Size() != 128 {
		t.Errorf("Size = %d, want 128 (28 hdr + 100)", p.Size())
	}
}

func TestMultipleFramesOnStream(t *testing.T) {
	var buf bytes.Buffer
	in := []Msg{
		SyncReq{TC1: 1},
		&Data{Pkt: Packet{Src: 1, Dst: 2, Seq: 10, Payload: []byte("x")}},
		Bye{Reason: "done"},
	}
	for _, m := range in {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := range in {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != in[i].Type() {
			t.Errorf("frame %d type %v, want %v", i, got.Type(), in[i].Type())
		}
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &SyncReq{TC1: 5}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadMsg(bytes.NewReader(cut)); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: %v, want ErrUnexpectedEOF", err)
	}
	// Truncated header.
	if _, err := ReadMsg(bytes.NewReader(buf.Bytes()[:2])); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: %v", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	hdr[4] = byte(TypeData)
	if _, err := ReadMsg(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize frame: %v", err)
	}
}

func TestZeroLengthFrameRejected(t *testing.T) {
	var hdr [4]byte
	if _, err := ReadMsg(bytes.NewReader(hdr[:])); !errors.Is(err, ErrShortBody) {
		t.Errorf("zero frame: %v", err)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	frame := []byte{0, 0, 0, 1, 200}
	if _, err := ReadMsg(bytes.NewReader(frame)); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: %v", err)
	}
}

func TestCorruptBodiesRejected(t *testing.T) {
	// Wrong body lengths for fixed-size messages.
	mk := func(ty Type, bodyLen int) []byte {
		b := make([]byte, 4+1+bodyLen)
		binary.BigEndian.PutUint32(b, uint32(1+bodyLen))
		b[4] = byte(ty)
		return b
	}
	cases := [][]byte{
		mk(TypeHello, 3),
		mk(TypeHelloAck, 5),
		mk(TypeSyncReq, 7),
		mk(TypeSyncReply, 23),
		mk(TypeData, 10),  // shorter than fixed header
		mk(TypeEvent, 5),  // shorter than fixed header
		mk(TypeEvent, 12), // radio count inconsistent with length
	}
	for i, frame := range cases {
		if _, err := ReadMsg(bytes.NewReader(frame)); err == nil {
			t.Errorf("case %d: corrupt body accepted", i)
		}
	}
}

func TestDataPayloadLengthLies(t *testing.T) {
	// A Data frame whose declared payload length disagrees with the
	// actual body must be rejected.
	good := &Data{Pkt: Packet{Payload: []byte("abcdef")}}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, good); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Payload length field sits at offset 4(hdr)+1(type)+24 = 29.
	binary.BigEndian.PutUint32(raw[29:], 100)
	if _, err := ReadMsg(bytes.NewReader(raw)); err == nil {
		t.Error("lying payload length accepted")
	}
	// Length beyond MaxPayload.
	binary.BigEndian.PutUint32(raw[29:], MaxPayload+1)
	if _, err := ReadMsg(bytes.NewReader(raw)); !errors.Is(err, ErrBadPayloadLen) {
		t.Errorf("huge payload length: %v", err)
	}
}

// Property: Data packets survive a round trip bit-for-bit.
func TestDataRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, ch, flow uint16, seq uint32, stamp int64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		in := &Data{Pkt: Packet{
			Src: radio.NodeID(src), Dst: radio.NodeID(dst),
			Channel: radio.ChannelID(ch), Flow: flow, Seq: seq,
			Stamp: vclock.Time(stamp), Payload: payload,
		}}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, in); err != nil {
			return false
		}
		out, err := ReadMsg(&buf)
		if err != nil {
			return false
		}
		d, ok := out.(*Data)
		if !ok {
			return false
		}
		if len(payload) == 0 {
			return len(d.Pkt.Payload) == 0 &&
				d.Pkt.Src == in.Pkt.Src && d.Pkt.Dst == in.Pkt.Dst &&
				d.Pkt.Stamp == in.Pkt.Stamp && d.Pkt.Seq == in.Pkt.Seq
		}
		return reflect.DeepEqual(d, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Fuzz-ish robustness: random garbage must never panic the decoder.
func TestDecoderRobustToGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		garbage := make([]byte, n)
		rng.Read(garbage)
		// Bound the declared length so ReadMsg doesn't allocate wildly.
		if n >= 4 {
			binary.BigEndian.PutUint32(garbage, uint32(rng.Intn(128)))
		}
		ReadMsg(bytes.NewReader(garbage)) // must not panic
	}
}

func TestWriteOversizeMessage(t *testing.T) {
	big := Bye{Reason: string(make([]byte, MaxFrame))}
	if err := WriteMsg(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
}

func TestPayloadCopiedNotAliased(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Data{Pkt: Packet{Payload: []byte("abc")}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	m, err := ReadMsg(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d := m.(*Data)
	raw[len(raw)-1] = 'z' // mutate the source buffer
	if string(d.Pkt.Payload) != "abc" {
		t.Error("payload aliased the read buffer")
	}
}

func BenchmarkWireCodecData(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(byteCount(size), func(b *testing.B) {
			m := &Data{Pkt: Packet{Src: 1, Dst: 2, Channel: 1, Payload: make([]byte, size)}}
			var buf bytes.Buffer
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteMsg(&buf, m); err != nil {
					b.Fatal(err)
				}
				if _, err := ReadMsg(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteCount(n int) string {
	switch {
	case n >= 1024:
		return string(rune('0'+n/1024/10%10)) + string(rune('0'+n/1024%10)) + "KiB"
	default:
		return string(rune('0'+n/10%10)) + string(rune('0'+n%10)) + "B"
	}
}

// A wrapper shared by k holders retires once, at the k-th release: its
// packet stays intact until then, its one buffer reference is freed
// exactly once, and a release past the last holder panics.
func TestSharedDataRetiresAtLastHolder(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	const k = 5
	buf := mbuf.AllocCopy(pool, []byte("shared"))
	buf.Retain(1) // the test's own, to see the wrapper free exactly one
	d := AcquireShared(Packet{Seq: 9, Payload: buf.Bytes(), Buf: buf}, k)
	for i := 1; i < k; i++ {
		ReleaseData(d)
		if d.Pkt.Buf != buf || string(d.Pkt.Payload) != "shared" {
			t.Fatalf("wrapper retired after %d of %d releases", i, k)
		}
	}
	ReleaseData(d)
	if d.Pkt.Buf != nil {
		t.Fatal("wrapper not retired at its last holder")
	}
	if live := pool.Live(); live != 1 {
		t.Fatalf("%d buffers live after the wrapper retired, want the test's 1", live)
	}
	buf.Free() // panics had the wrapper freed its reference twice
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d buffers live at the end, want 0", live)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a release past the last holder did not panic")
		}
	}()
	ReleaseData(d)
}

// A pooled read (DecodeFrameRef) has one holder, as AcquireData's does.
func TestDecodedDataHasOneHolder(t *testing.T) {
	pool := mbuf.NewPool()
	frame, err := AppendFrame(nil, &Data{Pkt: Packet{Seq: 3, Payload: []byte("one")}})
	if err != nil {
		t.Fatal(err)
	}
	buf := mbuf.AllocCopy(pool, frame[4:])
	m, err := DecodeFrameRef(buf.Bytes(), buf)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseData(m.(*Data))
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d buffers live after the one release, want 0", live)
	}
}

// Holders on different goroutines read the shared packet and release
// it; run under -race, the last release must not race the others' reads.
func TestSharedDataConcurrentRelease(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	const k, rounds = 8, 200
	for r := 0; r < rounds; r++ {
		buf := mbuf.AllocCopy(pool, []byte("fan"))
		d := AcquireShared(Packet{Seq: uint32(r), Payload: buf.Bytes(), Buf: buf}, k)
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if string(d.Pkt.Payload) != "fan" || d.Pkt.Seq != uint32(r) {
					t.Errorf("round %d: a holder read %+v", r, d.Pkt)
				}
				ReleaseData(d)
			}()
		}
		wg.Wait()
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d buffers live after every holder released, want 0", live)
	}
}
