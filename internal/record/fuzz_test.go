package record

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the one recording reader: it must
// never panic nor over-allocate, and anything it accepts must re-save
// to a log that loads to the very same records.
func FuzzLoad(f *testing.F) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(Scene{At: 1, Node: 2, Op: "move", Detail: "d", X: 3.25, Y: -4})
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	lw, err := NewLogWriter(&stream)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Attach(lw); err != nil {
		f.Fatal(err)
	}
	s.AddScene(Scene{At: 2, Node: 3, Op: "radios", Detail: "ch1 r200"})
	s.AddPacket(samplePacket(5))
	if err := s.Sync(); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:stream.Len()-7]) // torn tail
	f.Add(append([]byte("PoEL\x00\x01"), saved.Bytes()[len(header):]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Save(&out); err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("re-load failed: %v", err)
		}
		if a, b := contents(got), contents(again); !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", a, b)
		}
	})
}
