package record

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// TestWALRoundTrip: a log attached before the first record, read after
// Sync, loads to the store's records and is byte for byte what Save
// writes — with packets from concurrent streams and scenes interleaved,
// which holds only if both reach the log in the order they enter the
// store.
func TestWALRoundTrip(t *testing.T) {
	s := NewStore()
	var stream bytes.Buffer
	lw, err := NewLogWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(lw); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*packetFlushBatch; i++ {
				s.AddPacket(Packet{Kind: PacketOut, At: vclock.Time(i), Src: radio.NodeID(g), Relay: 9, Seq: uint32(i)})
				if i%100 == 0 {
					s.AddScene(move(vclock.Time(i), radio.NodeID(g), float64(i)/3, -float64(g)/7))
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := contents(got), contents(s); !reflect.DeepEqual(a, b) {
		t.Error("streamed log loads to different records than the store holds")
	}
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), stream.Bytes()) {
		t.Errorf("Save wrote %d bytes that differ from the %d-byte attached log", saved.Len(), stream.Len())
	}
}

// TestWALToleratesTruncation: a recording cut mid-record — Save's output
// or a streamed log — loads every whole record before the cut.
func TestWALToleratesTruncation(t *testing.T) {
	s := NewStore()
	var stream bytes.Buffer
	lw, _ := NewLogWriter(&stream)
	s.Attach(lw)
	for i := 0; i < 10; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.Sync()
	ev := everyKind()[0]
	s.AddScene(ev)
	var saved bytes.Buffer
	s.Save(&saved)
	sceneLen := sceneHead + len(scene.AppendRecord(nil, &ev))
	for name, full := range map[string][]byte{"save": saved.Bytes(), "stream": stream.Bytes()} {
		for _, tc := range []struct{ cut, packets, scenes int }{
			{3, 10, 0},            // inside the scene row's radios
			{sceneLen - 2, 10, 0}, // inside the scene row's length
			{sceneLen + 17, 9, 0}, // inside the last packet
			{sceneLen + 41, 9, 0}, // at a record boundary
			{0, 10, 1},            // whole
		} {
			got, err := Load(bytes.NewReader(full[:len(full)-tc.cut]))
			if err != nil {
				t.Fatalf("%s cut %d: %v", name, tc.cut, err)
			}
			if got.PacketCount() != tc.packets || got.SceneCount() != tc.scenes {
				t.Errorf("%s cut %d: kept %d packets, %d scenes; want %d, %d",
					name, tc.cut, got.PacketCount(), got.SceneCount(), tc.packets, tc.scenes)
			}
		}
	}
}

// failingReader serves data until k bytes have been read, then fails
// with errDisk: a disk or pipe error partway through a log.
type failingReader struct {
	data []byte
	k    int
}

var errDisk = errors.New("disk error")

func (r *failingReader) Read(p []byte) (int, error) {
	if r.k == 0 {
		return 0, errDisk
	}
	n := copy(p, r.data[:min(r.k, len(r.data))])
	r.data, r.k = r.data[n:], r.k-n
	return n, nil
}

// TestLoadReportsReadErrors pins that only end of input ends a log: a
// read error inside the header, inside a packet record or at a record
// boundary is returned, never taken for a cleanly shorter recording.
func TestLoadReportsReadErrors(t *testing.T) {
	s := NewStore()
	for i := 0; i < 4; i++ {
		s.AddPacket(samplePacket(i))
	}
	var buf bytes.Buffer
	s.Save(&buf)
	const record = packetLen
	hdr := len(header)
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"header", 3},
		{"packet record", hdr + record + 17},
		{"record boundary", hdr + 2*record},
	} {
		_, err := Load(&failingReader{data: buf.Bytes(), k: tc.k})
		if !errors.Is(err, errDisk) {
			t.Errorf("%s (after %d bytes): got %v, want the read error", tc.name, tc.k, err)
		}
	}
	// The same cuts as end of input are a torn tail: no error.
	if _, err := Load(bytes.NewReader(buf.Bytes()[:hdr+record+17])); err != nil {
		t.Errorf("truncated log: %v", err)
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	// An unknown tag after a valid record.
	s := NewStore()
	s.AddPacket(samplePacket(1))
	var buf bytes.Buffer
	s.Save(&buf)
	buf.WriteByte('X')
	if got, err := Load(&buf); !errors.Is(err, ErrBadLog) || got != nil {
		t.Errorf("unknown tag: store %v, error %v", got, err)
	}
}

func TestStoreAttachStreamsLive(t *testing.T) {
	s := NewStore()
	// Records present before Attach are replayed into the log.
	s.AddPacket(samplePacket(1))
	var buf bytes.Buffer
	lw, _ := NewLogWriter(&buf)
	if err := s.Attach(lw); err != nil {
		t.Fatal(err)
	}
	// Live appends stream through once the shard buffers commit.
	s.AddPacket(samplePacket(2))
	s.AddScene(scene.Event{At: 9, Kind: scene.NodeAdded})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 2 || got.SceneCount() != 1 {
		t.Errorf("streamed store: %d packets, %d scenes", got.PacketCount(), got.SceneCount())
	}
}

func TestStoreAttachConcurrent(t *testing.T) {
	s := NewStore()
	var buf bytes.Buffer
	lw, _ := NewLogWriter(&buf)
	s.Attach(lw)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.AddPacket(samplePacket(g*200 + i))
			}
		}(g)
	}
	wg.Wait()
	// Sync commits the sharded append buffers to the log; records still
	// buffered in the shards have not reached it before.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 1600 {
		t.Errorf("streamed %d records, want 1600", got.PacketCount())
	}
}

// failingWriter takes k bytes, then fails every write: a disk filling
// up partway through a run.
type failingWriter struct {
	bytes.Buffer
	k int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.k-w.Len())
	w.Buffer.Write(p[:n])
	if n < len(p) {
		return n, errDisk
	}
	return n, nil
}

// TestLogWriteFailureCounted: once an attached log's writer fails, every
// record the log did not take whole is counted on
// poem_record_log_dropped_total, Sync returns the writer's first error,
// and the store itself still holds every record.
func TestLogWriteFailureCounted(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	w := &failingWriter{k: len(header) + 300*packetLen + 17} // mid-record, in the second batch
	lw, err := NewLogWriter(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(lw); err != nil {
		t.Fatal(err)
	}
	const packets, scenes = 1000, 10
	for i := 0; i < packets; i++ {
		s.AddPacket(Packet{Kind: PacketIn, Src: 1, Seq: uint32(i)}) // one stream: 256-record batches
		if i%(packets/scenes) == 0 {
			s.AddScene(move(vclock.Time(i), 1, 0, 0))
		}
	}
	if err := s.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("Sync = %v, want the writer's error", err)
	}
	if s.PacketCount() != packets || s.SceneCount() != scenes {
		t.Errorf("store holds %d packets, %d scenes; want %d, %d", s.PacketCount(), s.SceneCount(), packets, scenes)
	}
	logged, err := Load(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	kept := logged.PacketCount() + logged.SceneCount()
	dropped := packets + scenes - kept
	if kept == 0 || dropped == 0 {
		t.Fatalf("log kept %d records and lost %d: the failure should fall mid-run", kept, dropped)
	}
	var m bytes.Buffer
	reg.WritePrometheus(&m)
	if want := fmt.Sprintf("\npoem_record_log_dropped_total %d\n", dropped); !strings.Contains(m.String(), want) {
		t.Errorf("metrics lack %q:\n%s", strings.TrimSpace(want), m.String())
	}
}
