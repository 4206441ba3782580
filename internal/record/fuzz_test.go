package record

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/radio"
	"repro/internal/scene"
)

// FuzzLoad feeds arbitrary bytes to the one recording reader: it must
// never panic nor over-allocate, it must refuse any header but the
// current version's, and anything it accepts must give back its scene
// changes and re-save to a log that loads to the very same records.
func FuzzLoad(f *testing.F) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(move(1, 2, 3.25, -4))
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
	s.AddScene(scene.Event{At: 2, Kind: scene.RadiosChanged, Node: 3, Radios: []radio.Radio{{Channel: 1, Range: 200}}})
	s.AddPacket(samplePacket(5))
	if err := s.Sync(); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:stream.Len()-7]) // torn tail
	f.Add(append([]byte("PoEL\x00\x01"), saved.Bytes()[len(header):]...))
	f.Add(append([]byte("PoEL\x00\x02"), saved.Bytes()[len(header):]...))
	for _, e := range everyKind() {
		f.Add(sceneLog(f, e))
	}
	torn := sceneLog(f, everyKind()[0])
	f.Add(torn[:len(torn)-5]) // a torn scene row
	for _, b := range refusedRows(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, header) {
			t.Fatalf("accepted a log without the version-3 header: %q", data[:min(len(data), len(header))])
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
