package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// sceneBytes returns real scene journal records — an add, a move, a
// pause — and a snapshot part, the opaque bytes a TrunkScene carries.
func sceneBytes() (add, move, pause, part []byte) {
	sc := scene.New(radio.NewIndexed(100), vclock.NewManual(777), 1)
	sc.KeepJournal()
	sc.AddNode(12, geom.V(10.5, -3.25), []radio.Radio{{Channel: 1, Range: 120}, {Channel: 2, Range: 30}})
	sc.MoveNode(12, geom.V(99, 1))
	sc.SetPaused(true)
	add, _, _ = sc.ReadJournal(1, 1)
	move, _, _ = sc.ReadJournal(2, 1)
	pause, _, _ = sc.ReadJournal(3, 1)
	_, parts := sc.EncodeState(1 << 10)
	return add, move, pause, parts[0]
}

// TestTrunkRoundTrip pins the trunk codec: every trunk message must
// survive WriteMsg→ReadMsg unchanged.
func TestTrunkRoundTrip(t *testing.T) {
	add, move, pause, part := sceneBytes()
	cases := []struct {
		name string
		msg  Msg
	}{
		{"hello", TrunkHello{Ver: Version, From: 3, Coordinator: 1, Seed: 7, Cluster: "scene-42"}},
		{"hello empty cluster", TrunkHello{Ver: Version, From: 0}},
		{"hello negative seed", TrunkHello{Ver: Version, From: 2, Seed: -1 << 62, Cluster: "c"}},
		{"hello of another version", TrunkHello{Ver: Version + 1}},
		{"batch empty", TrunkBatch{}},
		{"batch one", TrunkBatch{Entries: []TrunkEntry{
			{Due: 1000, To: 7, Pkt: Packet{Src: 1, Dst: 7, Channel: 2, Flow: 9, Seq: 4, Stamp: 900, Payload: []byte("hi")}},
		}}},
		{"batch many", TrunkBatch{Entries: []TrunkEntry{
			{Due: 10, To: 1, Pkt: Packet{Src: 2, Dst: 1, Channel: 1, Seq: 1, Stamp: 5, Payload: []byte("a")}},
			{Due: 20, To: 2, Pkt: Packet{Src: 2, Dst: radio.Broadcast, Channel: 1, Seq: 2, Stamp: 6}},
			{Due: 30, To: 3, Pkt: Packet{Src: 3, Dst: 3, Channel: 2, Flow: 1, Seq: 3, Stamp: 7, Payload: bytes.Repeat([]byte("x"), 1500)}},
		}}},
		{"scene add", TrunkScene{Origin: 0x5eed, Seq: 1, Data: add}},
		{"scene move", TrunkScene{Seq: 2, Data: move}},
		{"scene pause", TrunkScene{Seq: 3, Data: pause}},
		{"scene records", TrunkScene{Seq: 1, Data: append(append(append([]byte(nil), add...), move...), pause...)}},
		{"scene empty", TrunkScene{Seq: 9}},
		{"scene snapshot part", TrunkScene{Origin: 1 << 63, Seq: 3, Snapshot: true, Data: part}},
		{"status", TrunkStatus{From: 2, Health: 1, Origin: 0x5eed, AppliedSeq: 41, Digest: 0xfeedface, Now: 123456}},
		{"status resend", TrunkStatus{From: 1, Resend: true, Origin: 3, AppliedSeq: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMsg(&buf, tc.msg); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := ReadMsg(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			// ReadMsg returns pointers; compare against the pointer form.
			want := reflect.New(reflect.TypeOf(tc.msg))
			want.Elem().Set(reflect.ValueOf(tc.msg))
			normalizeTrunk(t, want.Interface())
			normalizeTrunk(t, got)
			if !reflect.DeepEqual(got, want.Interface()) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want.Interface())
			}
		})
	}
}

// normalizeTrunk maps the encodings' empty/nil slice distinction away:
// the wire format cannot tell []T{} from nil.
func normalizeTrunk(t *testing.T, m interface{}) {
	t.Helper()
	switch v := m.(type) {
	case *TrunkBatch:
		if len(v.Entries) == 0 {
			v.Entries = nil
		}
		for i := range v.Entries {
			if len(v.Entries[i].Pkt.Payload) == 0 {
				v.Entries[i].Pkt.Payload = nil
			}
		}
	case *TrunkScene:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	}
}

// TestTrunkBatchCorrupt pins decoder rejection of malformed batches.
func TestTrunkBatchCorrupt(t *testing.T) {
	good := TrunkBatch{Entries: []TrunkEntry{
		{Due: 10, To: 1, Pkt: Packet{Src: 2, Dst: 1, Channel: 1, Payload: []byte("abc")}},
	}}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, good); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := mutate(append([]byte(nil), frame...))
			if _, err := ReadMsg(bytes.NewReader(b)); err == nil {
				t.Fatal("corrupt frame accepted")
			}
		})
	}
	corrupt("truncated body", func(b []byte) []byte {
		// Shorten the payload but keep the frame length honest.
		b = b[:len(b)-1]
		byteLen := uint32(len(b) - 4)
		b[0], b[1], b[2], b[3] = byte(byteLen>>24), byte(byteLen>>16), byte(byteLen>>8), byte(byteLen)
		return b
	})
	corrupt("count overflows body", func(b []byte) []byte {
		b[5], b[6] = 0x0F, 0xFF // claim 4095 entries in a 1-entry body
		return b
	})
	corrupt("trailing garbage", func(b []byte) []byte {
		b = append(b, 0xAA)
		byteLen := uint32(len(b) - 4)
		b[0], b[1], b[2], b[3] = byte(byteLen>>24), byte(byteLen>>16), byte(byteLen>>8), byte(byteLen)
		return b
	})
}

// TestTrunkBatchPooledRead pins the pooled read path's reference
// counting: one frame buffer, one reference per entry, payloads
// aliasing the frame with no copies.
func TestTrunkBatchPooledRead(t *testing.T) {
	pool := mbuf.NewPool()
	tb := AcquireTrunkBatch()
	tb.Entries = append(tb.Entries,
		TrunkEntry{Due: 1, To: 1, Pkt: Packet{Src: 9, Dst: 1, Payload: []byte("one")}},
		TrunkEntry{Due: 2, To: 2, Pkt: Packet{Src: 9, Dst: 2, Payload: []byte("two")}},
		TrunkEntry{Due: 3, To: 3, Pkt: Packet{Src: 9, Dst: 3, Payload: []byte("three")}},
	)
	var buf bytes.Buffer
	if err := WriteMsg(&buf, tb); err != nil {
		t.Fatal(err)
	}
	ReleaseTrunkBatch(tb)

	m, err := ReadMsgPooled(&buf, pool)
	if err != nil {
		t.Fatalf("pooled read: %v", err)
	}
	got, ok := m.(*TrunkBatch)
	if !ok {
		t.Fatalf("pooled read returned %T", m)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(got.Entries))
	}
	frame := got.Entries[0].Pkt.Buf
	for i, e := range got.Entries {
		if e.Pkt.Buf != frame {
			t.Fatalf("entry %d backed by a different buffer", i)
		}
	}
	if string(got.Entries[2].Pkt.Payload) != "three" {
		t.Fatalf("payload corrupted: %q", got.Entries[2].Pkt.Payload)
	}
	if live := pool.Live(); live != 1 {
		t.Fatalf("pool live = %d, want 1 (one frame buffer)", live)
	}

	// Retire one entry independently (as a scheduler drop would), hand
	// the rest back via ReleaseTrunkBatch; the frame buffer must return
	// to the pool exactly once.
	got.Entries[0].Pkt.Buf.Free()
	got.Entries = got.Entries[1:]
	ReleaseTrunkBatch(got)
	if live := pool.Live(); live != 0 {
		t.Fatalf("pool live = %d after release, want 0", live)
	}
}

// TestTrunkBatchPooledReadEmpty: an empty batch must not leak the frame
// buffer.
func TestTrunkBatchPooledReadEmpty(t *testing.T) {
	pool := mbuf.NewPool()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, TrunkBatch{}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMsgPooled(&buf, pool)
	if err != nil {
		t.Fatal(err)
	}
	tb := m.(*TrunkBatch)
	if len(tb.Entries) != 0 {
		t.Fatalf("got %d entries, want 0", len(tb.Entries))
	}
	ReleaseTrunkBatch(tb)
	if live := pool.Live(); live != 0 {
		t.Fatalf("pool live = %d, want 0", live)
	}
}

// FuzzTrunkFrame feeds arbitrary frames to the decoder seeded with
// trunk messages: no panics, and accepted messages re-encode cleanly.
// (FuzzReadMsg covers the client frames; this target aims the corpus at
// the trunk codec's nested entry parsing.)
func FuzzTrunkFrame(f *testing.F) {
	add, move, _, part := sceneBytes()
	seeds := []Msg{
		TrunkHello{Ver: Version, From: 1, Coordinator: 0, Seed: 42, Cluster: "c"},
		TrunkHello{Ver: Version - 1, From: 1, Cluster: "poem"},
		TrunkBatch{Entries: []TrunkEntry{
			{Due: 10, To: 1, Pkt: Packet{Src: 2, Dst: 1, Channel: 1, Seq: 1, Stamp: 5, Payload: []byte("a")}},
			{Due: 20, To: 2, Pkt: Packet{Src: 2, Dst: 2, Channel: 1, Seq: 2, Stamp: 6, Payload: []byte("bb")}},
		}},
		TrunkScene{Origin: 9, Seq: 1, Data: append(append([]byte(nil), add...), move...)},
		TrunkScene{Origin: 9, Seq: 3, Snapshot: true, Data: part},
		TrunkStatus{From: 1, Health: 2, Resend: true, Origin: 9, AppliedSeq: 3, Digest: 5, Now: 4},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 3, 9, 0, 1})    // batch claiming 1 entry, no body
	f.Add([]byte{0, 0, 0, 2, 9, 0xFF, 0}) // huge count
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		if _, err := ReadMsg(&buf); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}

		// The pooled path must agree with the copying path.
		pool := mbuf.NewPool()
		pm, perr := ReadMsgPooled(bytes.NewReader(data), pool)
		if perr != nil {
			t.Fatalf("pooled read rejected a frame the plain read accepted: %v", perr)
		}
		ReleaseMsg(pm)
		if live := pool.Live(); live != 0 {
			t.Fatalf("pooled read leaked %d buffers", live)
		}
	})
}
