package record

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/radio"
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

// recording is every record of a store, scene coordinates also as bit
// patterns: DeepEqual takes a NaN for unequal to itself.
type recording struct {
	Packets []Packet
	Scenes  []Scene
	XY      []uint64
}

func contents(s *Store) recording {
	var r recording
	s.ForEachPacket(func(p Packet) { r.Packets = append(r.Packets, p) })
	for _, e := range s.Scenes(math.MinInt64, math.MaxInt64) {
		r.XY = append(r.XY, math.Float64bits(e.X), math.Float64bits(e.Y))
		e.X, e.Y = 0, 0
		r.Scenes = append(r.Scenes, e)
	}
	return r
}

func TestStoreAppendAndCount(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(Scene{At: 5, Node: 1, Op: "move", X: 1, Y: 2})
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
	s.AddScene(Scene{At: vclock.FromSeconds(99), Op: "late"})
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
	s.AddScene(Scene{At: 30, Op: "c"})
	s.AddScene(Scene{At: 10, Op: "a"})
	s.AddScene(Scene{At: 20, Op: "b"})
	s.AddScene(Scene{At: 99, Op: "out"})
	got := s.Scenes(0, 50)
	if len(got) != 3 || got[0].Op != "a" || got[1].Op != "b" || got[2].Op != "c" {
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
					s.AddScene(Scene{At: vclock.Time(i), Op: "tick"})
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
	s.AddScene(Scene{At: 7, Node: 3, Op: "move", Detail: "to (5,6)", X: 5, Y: 6})
	s.AddScene(Scene{At: 9, Node: 1, Op: "radios", Detail: "ch1 r200"})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 100 || got.SceneCount() != 2 {
		t.Fatalf("loaded counts: %d %d", got.PacketCount(), got.SceneCount())
	}
	if a, b := contents(s), contents(got); !reflect.DeepEqual(a, b) {
		t.Errorf("records differ after round trip: %+v vs %+v", a, b)
	}
}

// TestLoadRejectsGarbage: foreign bytes, version-1 logs and the retired
// "PoEm" snapshot format are all refused with ErrBadLog — never a panic
// or a partial store.
func TestLoadRejectsGarbage(t *testing.T) {
	v1 := append([]byte("PoEL\x00\x01P"), make([]byte, 40)...)
	snapshot := append([]byte("PoEm\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01"), make([]byte, 40)...)
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("PoEL"),                // truncated after magic
		append([]byte("PoEL"), 0, 99), // unknown version
		v1,                            // version 1: millimetre scene coordinates
		snapshot,                      // the old snapshot format
	}
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
		s.AddScene(Scene{At: 1, X: math.Float64frombits(x), Y: math.Float64frombits(y)})
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		e := got.Scenes(0, 10)[0]
		return math.Float64bits(e.X) == x && math.Float64bits(e.Y) == y
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
