package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

func samplePacket(i int) Packet {
	return Packet{
		Kind:    PacketKind(1 + i%3),
		At:      vclock.FromMillis(int64(i * 10)),
		Stamp:   vclock.FromMillis(int64(i*10 - 2)),
		Src:     radio.NodeID(i % 5),
		Dst:     radio.NodeID((i + 1) % 5),
		Relay:   radio.NodeID((i + 2) % 5),
		Channel: radio.ChannelID(i % 3),
		Flow:    uint16(i % 4),
		Seq:     uint32(i),
		Size:    uint32(100 + i),
	}
}

// move is a scene change to record: node id moved to (x, y) at at.
func move(at vclock.Time, id radio.NodeID, x, y float64) scene.Event {
	return scene.Event{At: at, Kind: scene.NodeMoved, Node: id, Pos: geom.V(x, y)}
}

// recording is every record of a store, each scene change as its
// record's bytes: DeepEqual takes a NaN coordinate or range for unequal
// to itself.
type recording struct {
	Packets []Packet
	Scenes  []string
}

func contents(s *Store) recording {
	var r recording
	s.ForEachPacket(func(p Packet) { r.Packets = append(r.Packets, p) })
	for _, e := range s.Scenes(math.MinInt64, math.MaxInt64) {
		r.Scenes = append(r.Scenes, string(scene.AppendRecord(nil, &e)))
	}
	return r
}

func TestStoreAppendAndCount(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(move(5, 1, 1, 2))
	if s.PacketCount() != 10 || s.SceneCount() != 1 {
		t.Errorf("counts: %d %d", s.PacketCount(), s.SceneCount())
	}
}

func TestPacketKindString(t *testing.T) {
	if PacketIn.String() != "in" || PacketOut.String() != "out" || PacketDrop.String() != "drop" {
		t.Error("kind strings")
	}
	if PacketKind(9).String() != "PacketKind(9)" {
		t.Error("unknown kind string")
	}
}

func TestForEachAndSpan(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 5; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(move(vclock.FromSeconds(99), 1, 0, 0))
	n := 0
	s.ForEachPacket(func(Packet) { n++ })
	if n != 5 {
		t.Errorf("ForEachPacket visited %d", n)
	}
	from, to := s.Span()
	if from != vclock.FromMillis(10) || to != vclock.FromSeconds(99) {
		t.Errorf("Span = %v..%v", from, to)
	}
}

func TestScenesSortedInWindow(t *testing.T) {
	s := NewStore()
	s.AddScene(move(30, 3, 0, 0))
	s.AddScene(move(10, 1, 0, 0))
	s.AddScene(move(20, 2, 0, 0))
	s.AddScene(move(99, 4, 0, 0))
	got := s.Scenes(0, 50)
	if len(got) != 3 || got[0].Node != 1 || got[1].Node != 2 || got[2].Node != 3 {
		t.Errorf("Scenes = %+v", got)
	}
}

func TestConcurrentAppend(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.AddPacket(samplePacket(i))
				if i%50 == 0 {
					s.AddScene(move(vclock.Time(i), 1, 0, 0))
				}
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.PacketCount()
				s.ForEachPacket(func(Packet) {})
			}
		}()
	}
	wg.Wait()
	if s.PacketCount() != writers*per {
		t.Errorf("lost records: %d", s.PacketCount())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.AddPacket(samplePacket(i))
	}
	for _, e := range everyKind() {
		s.AddScene(e)
	}
	s.AddScene(scene.Event{At: 11, Kind: scene.LinkModelChanged, Channel: 1}) // not journaled: not recorded
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 100 || got.SceneCount() != len(everyKind()) {
		t.Fatalf("loaded counts: %d %d", got.PacketCount(), got.SceneCount())
	}
	if a, b := contents(s), contents(got); !reflect.DeepEqual(a, b) {
		t.Errorf("records differ after round trip: %+v vs %+v", a, b)
	}
	if got := got.Scenes(0, math.MaxInt64); !reflect.DeepEqual(got, everyKind()) {
		t.Errorf("loaded scene changes %+v, want %+v", got, everyKind())
	}
}

// everyKind is one scene change of each journaled kind, in time order.
func everyKind() []scene.Event {
	rs := []radio.Radio{{Channel: 1, Range: 200}, {Channel: 2, Range: 50}}
	return []scene.Event{
		{At: 3, Kind: scene.NodeAdded, Node: 1, Pos: geom.V(1.5, -2), Radios: rs},
		move(5, 1, 5, 6),
		{At: 7, Kind: scene.RadiosChanged, Node: 1, Radios: rs[1:]},
		{At: 8, Kind: scene.PausedChanged, Paused: true},
		{At: 9, Kind: scene.NodeRemoved, Node: 1},
	}
}

// sceneLog is a recording of the one scene change e.
func sceneLog(t testing.TB, e scene.Event) []byte {
	s := NewStore()
	s.AddScene(e)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refusedRows are recordings whose one scene row the scene codec
// refuses: an unknown kind byte, and an add whose radio count runs past
// the row's end.
func refusedRows(t testing.TB) [][]byte {
	const kind = 6 + sceneHead + 8 // header, row head, stamp
	unknown := sceneLog(t, everyKind()[1])
	unknown[kind] = 99
	overrun := sceneLog(t, everyKind()[0])
	overrun[kind+1+4+16+1] = 3 // the add carries 2 radios
	return [][]byte{unknown, overrun}
}

// TestLargestSceneRowLoads: an add with as many radios as a node can
// carry is a row of maxRecordLen bytes, longer than a segment, and it
// loads back whole.
func TestLargestSceneRowLoads(t *testing.T) {
	rs := make([]radio.Radio, math.MaxUint16)
	for i := range rs {
		rs[i] = radio.Radio{Channel: radio.ChannelID(i), Range: float64(i)}
	}
	b := sceneLog(t, scene.Event{At: 1, Kind: scene.NodeAdded, Node: 1, Radios: rs})
	if len(b) != len(header)+maxRecordLen {
		t.Fatalf("largest add is a %d-byte log, want header and a %d-byte row", len(b), maxRecordLen)
	}
	got, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if es := got.Scenes(0, 1); len(es) != 1 || !reflect.DeepEqual(es[0].Radios, rs) {
		t.Errorf("loaded %d scene changes, not the one largest add", len(es))
	}
}

// TestLoadRejectsGarbage: foreign bytes, version-1 and version-2 logs,
// the retired "PoEm" snapshot format, a scene row longer than any record
// and rows the scene codec refuses are all refused with ErrBadLog —
// never a panic or a partial store.
func TestLoadRejectsGarbage(t *testing.T) {
	v1 := append([]byte("PoEL\x00\x01P"), make([]byte, 40)...)
	v2 := append([]byte("PoEL\x00\x02"), sceneLog(t, move(1, 2, 3, 4))[len(header):]...)
	long := sceneLog(t, move(1, 2, 3, 4))
	binary.BigEndian.PutUint32(long[len(header)+1:], scene.MaxRecordLen+1)
	snapshot := append([]byte("PoEm\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01"), make([]byte, 40)...)
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("PoEL"),                // truncated after magic
		append([]byte("PoEL"), 0, 99), // unknown version
		v1,                            // version 1: millimetre scene coordinates
		v2,                            // version 2: Op/Detail scene rows
		snapshot,                      // the old snapshot format
		long,                          // a scene row past MaxRecordLen
	}
	cases = append(cases, refusedRows(t)...)
	for i, b := range cases {
		if s, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrBadLog) || s != nil {
			t.Errorf("case %d (%q): store %v, error %v", i, b, s, err)
		}
	}
}

// Property: random packet records survive persistence bit-for-bit.
func TestPersistencePropertyRandom(t *testing.T) {
	f := func(kind uint8, at, stamp int64, src, dst, relay uint32, ch, flow uint16, seq uint32, size uint32) bool {
		p := Packet{
			Kind: PacketKind(kind%3 + 1), At: vclock.Time(at), Stamp: vclock.Time(stamp),
			Src: radio.NodeID(src), Dst: radio.NodeID(dst), Relay: radio.NodeID(relay),
			Channel: radio.ChannelID(ch), Flow: flow, Seq: seq, Size: size % (1 << 24),
		}
		s := NewStore()
		s.AddPacket(p)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(contents(got).Packets, []Packet{p})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: scene coordinates survive persistence bit for bit — NaNs,
// infinities and sub-millimetre fractions included.
func TestSceneCoordinatePrecision(t *testing.T) {
	f := func(x, y uint64) bool {
		s := NewStore()
		s.AddScene(move(1, 0, math.Float64frombits(x), math.Float64frombits(y)))
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		e := got.Scenes(0, 10)[0]
		return math.Float64bits(e.Pos.X) == x && math.Float64bits(e.Pos.Y) == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if !f(math.Float64bits(123.456), math.Float64bits(-98.765)) {
		t.Error("coordinates (123.456, -98.765) changed")
	}
}

// BenchmarkStoreAppend times AddPacket on an empty store and on one
// already holding 10⁶ records. max-commit-ns is the slowest call that
// committed a shard batch: it should cost the batch, not the log.
func BenchmarkStoreAppend(b *testing.B) {
	for _, preload := range []int{0, 1_000_000} {
		b.Run(fmt.Sprintf("preload=%d", preload), func(b *testing.B) {
			s := NewStore()
			for i := 0; i < preload; i++ {
				s.AddPacket(samplePacket(i))
			}
			s.Sync()
			p := samplePacket(1)
			var worst time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%packetFlushBatch != packetFlushBatch-1 {
					s.AddPacket(p)
					continue
				}
				t0 := time.Now()
				s.AddPacket(p)
				worst = max(worst, time.Since(t0))
			}
			b.ReportMetric(float64(worst.Nanoseconds()), "max-commit-ns")
		})
	}
}

func BenchmarkStoreSave(b *testing.B) {
	s := NewStore()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s.AddPacket(samplePacket(rng.Intn(1000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
