package scene

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// origin names the journal of every coordinator scene in these tests.
const origin = 7

// coordScene is a scene that keeps its journal, as a coordinator's does.
func coordScene() *Scene {
	s := newScene(vclock.NewManual(0))
	s.KeepJournal()
	return s
}

// catchUp applies coord's journal to r from the replica's next seq on, in
// frames of at most max bytes, as a coordinator's peer loop sends them.
func catchUp(t *testing.T, coord *Scene, r *Replica, max int) {
	t.Helper()
	for {
		_, applied := r.Applied()
		b, n, ok := coord.ReadJournal(applied+1, max)
		if !ok {
			t.Fatalf("seq %d fell off the journal", applied+1)
		}
		if n == 0 {
			return
		}
		if _, _, err := r.Apply(origin, applied+1, false, b); err != nil {
			t.Fatal(err)
		}
	}
}

// restoreFrom hands r coord's state in parts of at most max bytes.
func restoreFrom(t *testing.T, coord *Scene, r *Replica, max int) {
	t.Helper()
	seq, parts := coord.EncodeState(max)
	for i, p := range parts {
		_, restored, err := r.Apply(origin, seq, true, p)
		if err != nil || restored != (i == len(parts)-1) {
			t.Fatalf("part %d of %d: restored %v, err %v", i+1, len(parts), restored, err)
		}
	}
}

// state is the scene's state encoding.
func state(s *Scene) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendStateLocked(nil)
}

// randomScene builds a scene from seeded mutations.
func randomScene(seed int64, ops int) *Scene {
	s := newScene(vclock.NewManual(0))
	randomOps(s, seed, ops)
	return s
}

// randomOps applies seeded mutations of every replicable kind over ids
// 1..40 on three channels.
func randomOps(s *Scene, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	radios := func() []radio.Radio {
		rs := make([]radio.Radio, rng.Intn(3))
		for i := range rs {
			rs[i] = radio.Radio{Channel: radio.ChannelID(1 + rng.Intn(3)), Range: float64(rng.Intn(300))}
		}
		return rs
	}
	for i := 0; i < ops; i++ {
		id := radio.NodeID(1 + rng.Intn(40))
		switch rng.Intn(6) {
		case 0, 1:
			s.AddNode(id, geom.V(rng.Float64()*500, rng.Float64()*500), radios())
		case 2:
			s.RemoveNode(id)
		case 3:
			s.MoveNode(id, geom.V(rng.Float64()*500, rng.Float64()*500))
		case 4:
			s.SetRadios(id, radios())
		case 5:
			s.SetPaused(rng.Intn(2) == 0)
		}
	}
}

// TestRestoreGivesIdenticalState: restoring one scene's state onto an
// arbitrary other scene, in parts small enough to split it, leaves the
// two with identical state bytes, node snapshots and digests.
func TestRestoreGivesIdenticalState(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		src, dst := randomScene(seed, 300), randomScene(seed+1000, 300)
		if _, parts := src.EncodeState(256); len(parts) < 2 {
			t.Fatalf("seed %d: state of %d nodes fits one 256-byte part", seed, src.Len())
		}
		restoreFrom(t, src, NewReplica(dst), 256)
		if got, want := state(dst), state(src); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: restored state differs", seed)
		}
		if got, want := dst.Snapshot(), src.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: restored snapshot %v, source %v", seed, got, want)
		}
		if _, a := dst.Digest(); a != func() uint64 { _, d := src.Digest(); return d }() {
			t.Fatalf("seed %d: digests differ after a restore", seed)
		}
	}
}

// TestJournalRingWraps: the ring keeps the last JournalRecords records,
// and fewer once their bytes pass the byte bound; a seq that fell off is
// reported as such and a restore takes its place; records read across
// the byte ring's wrap replay exactly. A scene that does not keep its
// journal counts seqs and holds none.
func TestJournalRingWraps(t *testing.T) {
	coord := coordScene()
	behind, follower := NewReplica(newScene(vclock.NewManual(0))), NewReplica(newScene(vclock.NewManual(0)))
	restoreFrom(t, coord, behind, 1<<10)
	restoreFrom(t, coord, follower, 1<<10)
	for id := radio.NodeID(1); id <= 2; id++ {
		if err := coord.AddNode(id, geom.V(float64(id), 0), oneRadio(1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	catchUp(t, coord, behind, 1<<10)
	catchUp(t, coord, follower, 1<<10)
	for i := 0; i < 3*JournalRecords; i++ {
		coord.MoveNode(1, geom.V(float64(i%500), 1))
		if i%1000 == 0 {
			catchUp(t, coord, follower, 4<<10)
		}
	}
	first, last := coord.JournalSpan()
	if last != 2+3*JournalRecords || last-first+1 != JournalRecords {
		t.Fatalf("journal holds seqs %d..%d after %d records, want the last %d", first, last, 2+3*JournalRecords, JournalRecords)
	}
	if _, _, ok := coord.ReadJournal(first-1, 1<<10); ok {
		t.Fatalf("seq %d read after it fell off", first-1)
	}
	if b, n, ok := coord.ReadJournal(first, 1<<10); !ok || n == 0 || len(b) > 1<<10 {
		t.Fatalf("oldest seq %d: %d records in %d bytes, ok %v", first, n, len(b), ok)
	}
	_, applied := behind.Applied()
	if _, _, ok := coord.ReadJournal(applied+1, 1<<10); ok {
		t.Fatal("a replica behind the whole ring was not told it fell off")
	}
	restoreFrom(t, coord, behind, 1<<10)

	// Radio-set records of 215 bytes pass the byte bound before the
	// record bound, so the byte ring wraps a few times.
	many := make([]radio.Radio, 20)
	for i := 0; i < 12000; i++ {
		for k := range many {
			many[k] = radio.Radio{Channel: radio.ChannelID(1 + k%3), Range: float64(i%50 + k)}
		}
		coord.SetRadios(2, many)
		if i%500 == 0 {
			catchUp(t, coord, follower, 64<<10)
			catchUp(t, coord, behind, 64<<10)
		}
	}
	catchUp(t, coord, follower, 64<<10)
	catchUp(t, coord, behind, 64<<10)
	if first, last = coord.JournalSpan(); last-first+1 >= JournalRecords/2 || last-first+1 < 10 {
		t.Fatalf("byte-bound journal holds %d records", last-first+1)
	}
	_, want := coord.Digest()
	for name, r := range map[string]*Replica{"follower": follower, "restored": behind} {
		if o, applied, d := r.State(); o != origin || applied != last || d != want {
			t.Errorf("%s: origin %d applied %d digest %x, coordinator %d %d %x", name, o, applied, d, origin, last, want)
		}
	}

	plain := newScene(vclock.NewManual(0))
	plain.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	plain.MoveNode(1, geom.V(1, 0))
	if first, last := plain.JournalSpan(); last != 2 || first <= last {
		t.Fatalf("scene without a kept journal spans %d..%d, want seq 2 and nothing held", first, last)
	}
	if _, _, ok := plain.ReadJournal(1, 1<<10); ok {
		t.Fatal("a scene that keeps no journal read seq 1")
	}
}

// TestReplicaDropsWhatItCannotApply: a journal frame before any state,
// one of another origin, one that skips a seq, one with nothing new and
// a malformed one leave the scene alone; an overlapping frame applies its
// new tail only; a state part that does not continue the one being
// reassembled is out of sequence; a whole state of another origin is
// taken, and the replica follows that journal from then on.
func TestReplicaDropsWhatItCannotApply(t *testing.T) {
	coord := coordScene()
	for id := radio.NodeID(1); id <= 3; id++ {
		coord.AddNode(id, geom.V(float64(id)*10, 0), oneRadio(1, 100))
	}
	r := NewReplica(newScene(vclock.NewManual(0)))
	all, _, _ := coord.ReadJournal(1, 1<<10)
	if _, _, err := r.Apply(origin, 1, false, all); !errors.Is(err, ErrOutOfSequence) || r.sc.Len() != 0 {
		t.Fatalf("journal frame before any state: %v, %d nodes", err, r.sc.Len())
	}
	restoreFrom(t, coordScene(), r, 1<<10) // coord's state at seq 0
	from2, _, _ := coord.ReadJournal(2, 1<<10)
	for _, f := range []struct {
		name   string
		origin uint64
		seq    uint64
		b      []byte
	}{
		{"frame from seq 2 onto seq 0", origin, 2, from2},
		{"frame of another journal", origin + 1, 1, all},
	} {
		if _, _, err := r.Apply(f.origin, f.seq, false, f.b); !errors.Is(err, ErrOutOfSequence) || r.sc.Len() != 0 {
			t.Fatalf("%s: %v, %d nodes", f.name, err, r.sc.Len())
		}
	}
	if _, _, err := r.Apply(origin, 1, false, all[:len(all)-1]); err == nil || r.sc.Len() != 0 {
		t.Fatalf("truncated frame: %v, %d nodes", err, r.sc.Len())
	}
	if _, _, err := r.Apply(origin, 1, false, all); err != nil || r.sc.Len() != 3 {
		t.Fatalf("frame 1..3: %v, %d nodes", err, r.sc.Len())
	}
	if _, _, err := r.Apply(origin, 2, false, from2); !errors.Is(err, ErrOutOfSequence) {
		t.Fatalf("frame 2..3 at seq 3: %v", err)
	}
	coord.AddNode(4, geom.V(40, 0), oneRadio(1, 100))
	from2, n, _ := coord.ReadJournal(2, 1<<10)
	if _, _, err := r.Apply(origin, 2, false, from2); err != nil || n != 3 || !r.sc.HasNode(4) {
		t.Fatalf("overlapping frame 2..4: %v (%d records), node 4 there: %v", err, n, r.sc.HasNode(4))
	}
	if o, applied := r.Applied(); o != origin || applied != 4 {
		t.Fatalf("applied %d of %d, want 4 of %d", applied, o, origin)
	}
	seq, parts := coord.EncodeState(30)
	if _, _, err := r.Apply(origin, seq, true, parts[1]); !errors.Is(err, ErrOutOfSequence) {
		t.Fatalf("second state part first: %v", err)
	}
	r.Apply(origin, seq, true, parts[0])
	if _, _, err := r.Apply(origin+1, seq, true, parts[1]); !errors.Is(err, ErrOutOfSequence) {
		t.Fatalf("a part of another journal's state: %v", err)
	}

	// A restarted coordinator: a new journal whose seqs start again.
	again := coordScene()
	again.AddNode(9, geom.V(0, 0), oneRadio(1, 100))
	recs, _, _ := again.ReadJournal(1, 1<<10)
	if _, _, err := r.Apply(origin+1, 5, false, recs); !errors.Is(err, ErrOutOfSequence) || r.sc.HasNode(9) {
		t.Fatalf("the new journal's records onto the old state: %v", err)
	}
	seq, parts = again.EncodeState(1 << 10)
	if _, restored, err := r.Apply(origin+1, seq, true, parts[0]); err != nil || !restored {
		t.Fatalf("the new journal's state: restored %v, %v", restored, err)
	}
	if o, applied := r.Applied(); o != origin+1 || applied != 1 || r.sc.Len() != 1 || !r.sc.HasNode(9) {
		t.Fatalf("after the new state: origin %d applied %d, %d nodes", o, applied, r.sc.Len())
	}
}

// FuzzSceneJournal feeds a follower's replica arbitrary journal frames
// and state parts: nothing panics, a rejected frame changes nothing, an
// accepted journal frame re-encodes to its own bytes, and a restored
// state is exactly the state the scene then holds.
func FuzzSceneJournal(f *testing.F) {
	src := newScene(vclock.NewManual(0))
	src.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	src.AddNode(2, geom.V(10, 0), oneRadio(2, 100))
	src.KeepJournal()
	randomOps(src, 7, 30)
	recs, _, _ := src.ReadJournal(3, 1<<20)
	f.Add(recs, false)
	_, parts := src.EncodeState(1 << 20)
	f.Add(parts[0], true)
	_, parts = src.EncodeState(64)
	f.Add(parts[0], true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, snapshot bool) {
		sc := newScene(vclock.NewManual(0))
		sc.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
		sc.AddNode(2, geom.V(10, 0), oneRadio(2, 100))
		r := NewReplica(sc)
		restoreFrom(t, sc, r, 1<<20) // follow a journal at the scene's own state
		before, beforeSeq := state(sc), func() uint64 { _, l := sc.JournalSpan(); return l }()
		unchanged := func(what string) {
			if _, l := sc.JournalSpan(); l != beforeSeq || !bytes.Equal(state(sc), before) {
				t.Fatalf("%s changed the scene", what)
			}
		}
		_, restored, err := r.Apply(origin, 3, snapshot, data)
		switch {
		case errors.Is(err, errBadRecord), errors.Is(err, ErrOutOfSequence):
			unchanged("a rejected frame")
		case snapshot && restored:
			if got := state(sc); !bytes.Equal(got, data[8:]) {
				t.Fatalf("restored state re-encodes to %x, part carried %x", got, data[8:])
			}
		case snapshot:
			unchanged("a partial state")
		default:
			decoded, derr := decodeJournal(data)
			if derr != nil {
				t.Fatalf("accepted frame does not decode: %v", derr)
			}
			var again []byte
			for i := range decoded {
				again = appendRecord(again, &decoded[i])
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-encodes to %x, was %x", again, data)
			}
		}
	})
}

// BenchmarkDigestLargeScene is the scene-lock hold of one digest taken
// after a mutation on a storm-sized scene (16 384 nodes, one radio
// each): the cost a follower's heartbeat pays when its scene moved since
// the last one, and the coordinator's when it judges a follower.
func BenchmarkDigestLargeScene(b *testing.B) {
	s := New(radio.NewIndexed(200), vclock.NewManual(0), 1)
	for id := radio.NodeID(1); id <= 16384; id++ {
		s.AddNode(id, geom.V(float64(id%128)*50, float64(id/128)*50), oneRadio(1, 120))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MoveNode(1, geom.V(float64(i%100), 0))
		s.Digest()
	}
}
