package record

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/radio"
	"repro/internal/vclock"
)

// TestShardedAppendPreservesStreamOrder: records of one (Src, Relay)
// stream — written by a single goroutine, as the server does — must
// appear in the store in write order, however the shard batches
// interleave. Run under -race this also exercises the striped append
// path for soundness.
func TestShardedAppendPreservesStreamOrder(t *testing.T) {
	const (
		streams = 8
		each    = 3 * packetFlushBatch // force several batch commits
	)
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(src radio.NodeID) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.AddPacket(Packet{
					Kind: PacketIn, At: vclock.Time(i), Src: src, Seq: uint32(i),
				})
			}
		}(radio.NodeID(g))
	}
	wg.Wait()
	if got := s.PacketCount(); got != streams*each {
		t.Fatalf("PacketCount = %d, want %d", got, streams*each)
	}
	next := make(map[radio.NodeID]uint32)
	s.ForEachPacket(func(p Packet) {
		if p.Seq != next[p.Src] {
			t.Fatalf("stream %v out of order: got seq %d, want %d", p.Src, p.Seq, next[p.Src])
		}
		next[p.Src]++
	})
}

// TestBufferedRecordsVisibleToReaders: a record below the flush
// threshold must still be seen by every reader — readers drain the
// shards.
func TestBufferedRecordsVisibleToReaders(t *testing.T) {
	s := NewStore()
	s.AddPacket(Packet{Kind: PacketIn, At: 5, Src: 1, Seq: 9})
	if got := s.PacketCount(); got != 1 {
		t.Fatalf("PacketCount = %d, want 1", got)
	}
	if got := contents(s).Packets; len(got) != 1 || got[0].Seq != 9 {
		t.Fatalf("ForEachPacket saw %+v", got)
	}
	if from, to := s.Span(); from != 5 || to != 5 {
		t.Errorf("Span = [%v,%v], want [5,5]", from, to)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PacketCount() != 1 {
		t.Error("buffered record missing from snapshot")
	}
}

// TestSyncCommitsToAttachedLog: Sync pushes shard-buffered records
// through an attached log writer and flushes it.
func TestSyncCommitsToAttachedLog(t *testing.T) {
	s := NewStore()
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(lw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // well below the flush threshold
		s.AddPacket(Packet{Kind: PacketIn, Src: 2, Seq: uint32(i)})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 10 {
		t.Errorf("log holds %d records after Sync, want 10", got.PacketCount())
	}
}

// TestCommittedRecordsNeverMove: a sealed segment is never copied or
// rewritten. Concurrent writers append 10⁵ more records while readers
// iterate; the first segment keeps its backing array and its bytes.
func TestCommittedRecordsNeverMove(t *testing.T) {
	s := NewStore()
	first := segmentSize/packetLen + 1
	for i := 0; i < first; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.Sync()
	s.mu.RLock()
	if len(s.segs) < 2 {
		s.mu.RUnlock()
		t.Fatalf("%d records left %d segment(s); the first should have sealed", first, len(s.segs))
	}
	addr, sealed := unsafe.SliceData(s.segs[0]), bytes.Clone(s.segs[0])
	s.mu.RUnlock()

	const writers, each = 4, 25_000
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < each; i++ {
				s.AddPacket(Packet{Kind: PacketOut, Src: radio.NodeID(w), Relay: radio.NodeID(i % 7), Seq: uint32(i)})
				if i%1000 == 0 {
					s.AddScene(move(vclock.Time(i), radio.NodeID(w), float64(i), 0))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := 0
				s.ForEachPacket(func(Packet) { n++ })
				if n < first {
					t.Errorf("reader saw %d packet records, fewer than the %d committed first", n, first)
					return
				}
				s.Scenes(0, math.MaxInt64)
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()

	if got, want := s.PacketCount(), first+writers*each; got != want {
		t.Errorf("PacketCount = %d, want %d", got, want)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if unsafe.SliceData(s.segs[0]) != addr {
		t.Error("the sealed first segment moved")
	}
	if !bytes.Equal(s.segs[0], sealed) {
		t.Error("the sealed first segment's bytes changed")
	}
}
