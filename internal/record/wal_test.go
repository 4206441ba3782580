package record

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestWALRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []Packet
	for i := 0; i < 20; i++ {
		p := samplePacket(i)
		want = append(want, p)
		if err := lw.Packet(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Scene(Scene{At: 5, Node: 1, Op: "move", Detail: "x", X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Packets(Filter{}), want) {
		t.Error("packets differ after WAL round trip")
	}
	if got.SceneCount() != 1 {
		t.Errorf("scenes: %d", got.SceneCount())
	}
}

func TestWALToleratesTruncation(t *testing.T) {
	var buf bytes.Buffer
	lw, _ := NewLogWriter(&buf)
	for i := 0; i < 10; i++ {
		lw.Packet(samplePacket(i))
	}
	lw.Flush()
	full := buf.Bytes()
	// Cut mid-record: everything before the cut must still load.
	cut := full[:len(full)-17]
	got, err := LoadLog(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 9 {
		t.Errorf("truncated load kept %d records, want 9", got.PacketCount())
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

// TestLoadLogReportsReadErrors pins that only end of input ends a log:
// a read error inside the header, inside a packet record or at a record
// boundary is returned, never taken for a cleanly shorter recording.
func TestLoadLogReportsReadErrors(t *testing.T) {
	var buf bytes.Buffer
	lw, _ := NewLogWriter(&buf)
	for i := 0; i < 4; i++ {
		lw.Packet(samplePacket(i))
	}
	lw.Flush()
	const header, record = 6, 1 + 40 // magic + version; tag + packet
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"header", 3},
		{"packet record", header + record + 17},
		{"record boundary", header + 2*record},
	} {
		_, err := LoadLog(&failingReader{data: buf.Bytes(), k: tc.k})
		if !errors.Is(err, errDisk) {
			t.Errorf("%s (after %d bytes): got %v, want the read error", tc.name, tc.k, err)
		}
	}
	// The same cuts as end of input are a torn tail: no error.
	if _, err := LoadLog(bytes.NewReader(buf.Bytes()[:header+record+17])); err != nil {
		t.Errorf("truncated log: %v", err)
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	if _, err := LoadLog(bytes.NewReader([]byte("nope"))); !errors.Is(err, ErrBadLog) {
		t.Error("bad magic accepted")
	}
	if _, err := LoadLog(bytes.NewReader(append([]byte("PoEL"), 0, 99))); !errors.Is(err, ErrBadLog) {
		t.Error("bad version accepted")
	}
	// Unknown tag after a valid header.
	var buf bytes.Buffer
	lw, _ := NewLogWriter(&buf)
	lw.Flush()
	buf.WriteByte('X')
	if _, err := LoadLog(&buf); !errors.Is(err, ErrBadLog) {
		t.Error("unknown tag accepted")
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
	s.AddScene(Scene{At: 9, Op: "add"})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(bytes.NewReader(buf.Bytes()))
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
	// Sync commits the sharded append buffers to the log and flushes it;
	// a bare lw.Flush() would miss batches still buffered in the shards.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 1600 {
		t.Errorf("streamed %d records, want 1600", got.PacketCount())
	}
}

func TestLoadAutoDetects(t *testing.T) {
	s := NewStore()
	s.AddPacket(samplePacket(3))
	// Snapshot form.
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAuto(bytes.NewReader(snap.Bytes()))
	if err != nil || got.PacketCount() != 1 {
		t.Errorf("snapshot auto-load: %v %d", err, got.PacketCount())
	}
	// Log form.
	var wal bytes.Buffer
	lw, _ := NewLogWriter(&wal)
	lw.Packet(samplePacket(4))
	lw.Flush()
	got, err = LoadAuto(bytes.NewReader(wal.Bytes()))
	if err != nil || got.PacketCount() != 1 {
		t.Errorf("log auto-load: %v", err)
	}
	// Garbage.
	if _, err := LoadAuto(bytes.NewReader([]byte("garbage here"))); err == nil {
		t.Error("garbage auto-loaded")
	}
}
