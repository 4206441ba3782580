package wire

import (
	"bytes"
	"testing"
)

// FuzzReadMsg feeds arbitrary frames to the decoder: it must never
// panic, and every message it accepts must re-encode to something it
// accepts again (decode∘encode idempotence).
func FuzzReadMsg(f *testing.F) {
	// Seed with one valid frame of every type.
	seeds := []Msg{
		Hello{Ver: Version, ProposedID: 1},
		HelloAck{Assigned: 2, ServerNow: 3},
		SyncReq{TC1: 4},
		SyncReply{TC1: 1, TS2: 2, TS3: 3},
		&Data{Pkt: Packet{Src: 1, Dst: 2, Channel: 3, Payload: []byte("x")}},
		Event{Kind: EventRadios},
		Bye{Reason: "seed"},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, 99})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		if _, err := ReadMsg(&buf); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
