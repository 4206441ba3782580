// Package record is PoEm's recording subsystem. The paper's server runs
// dedicated recording threads (§3.2 step 7): one collects the complete
// information of every incoming/outgoing packet, another gathers the
// varying scene, both writing to a SQL database over ODBC for later
// statistics and post-emulation replay.
//
// This reproduction substitutes an embedded append-only store whose
// memory is its own recording format (wal.go): each record is encoded
// once, as it is committed, and the same bytes go to an attached
// streaming log and to Save. The write path (concurrent recorders) and
// the read path (statistics queries, replay) are preserved without the
// external database dependency.
package record

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// PacketKind classifies a packet record.
type PacketKind uint8

// Packet record kinds.
const (
	// PacketIn is a packet received by the server from a client.
	PacketIn PacketKind = iota + 1
	// PacketOut is a packet forwarded by the server to a client.
	PacketOut
	// PacketDrop is a packet the link model decided to lose.
	PacketDrop
)

// String implements fmt.Stringer.
func (k PacketKind) String() string {
	switch k {
	case PacketIn:
		return "in"
	case PacketOut:
		return "out"
	case PacketDrop:
		return "drop"
	default:
		return fmt.Sprintf("PacketKind(%d)", uint8(k))
	}
}

// Packet is the complete information of one packet event.
type Packet struct {
	Kind    PacketKind
	At      vclock.Time // server emulation clock at the event
	Stamp   vclock.Time // client's parallel timestamp (send time)
	Src     radio.NodeID
	Dst     radio.NodeID // addressed destination (may be Broadcast)
	Relay   radio.NodeID // concrete receiver for Out/Drop records
	Channel radio.ChannelID
	Flow    uint16
	Seq     uint32
	Size    uint32
}

// Store is the append-only recording database. All methods are safe for
// concurrent use; the server's recording goroutines append while
// statistics readers iterate.
//
// The records live in fixed-size segments, in the recording format. A
// record never spans two segments, and only the last segment grows, so
// a committed record is never copied or moved and a commit costs its
// own bytes, whatever the length of the log.
//
// Packet appends — the recording hot path, one or more per forwarded
// packet — do not take the store lock. They are encoded into one of
// several shards, chosen by the record's (Src, Relay) stream key so
// records of one stream stay in order, and each shard batch-commits to
// the segments (and any attached logs) once it fills. Readers drain the
// shards first, so every record written before a read is visible to it;
// the batching only defers *where* a record lives, never whether it is
// seen. On a crash, at most one uncommitted batch per shard is lost to
// an attached log — the log format already tolerates a truncated tail.
type Store struct {
	mu      sync.RWMutex
	segs    [][]byte // the committed records; only the last segment grows
	packets int      // packet records in segs
	scenes  int      // scene records in segs
	sinks   []*LogWriter

	shards [packetShards]packetShard

	// Live counters, readable without draining the shards (a /metrics
	// scrape must not force batch commits or take the store lock).
	nPackets    atomic.Uint64
	nScenes     atomic.Uint64
	nCommits    atomic.Uint64 // shard batch commits into the segments
	nLogDropped atomic.Uint64 // records an attached log failed to take
}

// segmentSize is the capacity of one segment. A scene row longer than
// that (an add carrying thousands of radios) gets a segment of its own
// length, so every record fits some segment whole.
const segmentSize = 256 << 10

// packetShards spreads concurrent recorders; a power of two so the
// stream hash reduces with a mask.
const packetShards = 16

// packetFlushBatch is how many records a shard buffers before
// committing them to the segments and the attached logs in one lock
// acquisition.
const packetFlushBatch = 256

// packetShard is one striped append buffer of encoded packet records.
type packetShard struct {
	mu    sync.Mutex
	buf   []byte
	spare []byte // recycled storage for the next buf

	// commitMu serializes take→commit so batches of this shard enter
	// the log in buffer-prefix order, keeping per-stream FIFO.
	commitMu sync.Mutex
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// shardOf maps a record to its stream's shard: records with the same
// (Src, Relay) — i.e. the same in/out/drop stream, written by a single
// server goroutine — always share a shard, preserving their order.
func shardOf(p *Packet) int {
	h := uint32(p.Src)*0x9e3779b1 ^ uint32(p.Relay)*0x85ebca6b
	return int(h>>16^h) & (packetShards - 1)
}

// AddPacket appends a packet record. It takes only a shard lock; the
// store lock is touched once per packetFlushBatch records.
func (s *Store) AddPacket(p Packet) {
	s.nPackets.Add(1)
	sh := &s.shards[shardOf(&p)]
	sh.mu.Lock()
	sh.buf = appendPacket(sh.buf, &p)
	full := len(sh.buf) >= packetFlushBatch*packetLen
	sh.mu.Unlock()
	if full {
		s.flushShard(sh)
	}
}

// flushShard commits the shard's buffered records. commitMu makes the
// take and the commit atomic with respect to other flushes of the same
// shard, so batches append in the order they were buffered.
func (s *Store) flushShard(sh *packetShard) {
	sh.commitMu.Lock()
	sh.mu.Lock()
	batch := sh.buf
	sh.buf = sh.spare[:0]
	sh.spare = nil
	sh.mu.Unlock()
	if len(batch) > 0 {
		s.nCommits.Add(1)
		s.mu.Lock()
		s.commit(batch, packetLen)
		s.mu.Unlock()
	}
	sh.mu.Lock()
	if sh.spare == nil {
		sh.spare = batch[:0]
	}
	sh.mu.Unlock()
	sh.commitMu.Unlock()
}

// commit appends b — whole records of n bytes each, or one record of
// n = len(b) — to the segments and to every attached log. The caller
// holds s.mu or is the store's only user.
func (s *Store) commit(b []byte, n int) {
	if b[0] == 'P' {
		s.packets += len(b) / n
	} else {
		s.scenes++
	}
	for _, lw := range s.sinks {
		if k, err := lw.write(b); err != nil {
			s.nLogDropped.Add(uint64(countRecords(b) - countRecords(b[:k])))
		}
	}
	for len(b) > 0 {
		i := len(s.segs) - 1
		if i < 0 || cap(s.segs[i])-len(s.segs[i]) < n {
			s.segs = append(s.segs, make([]byte, 0, max(segmentSize, n)))
			i++
		}
		k := min((cap(s.segs[i])-len(s.segs[i]))/n*n, len(b))
		s.segs[i] = append(s.segs[i], b[:k]...)
		b = b[k:]
	}
}

// each calls fn with every committed record in log order; the caller
// holds s.mu.
func (s *Store) each(fn func(r []byte)) {
	for _, seg := range s.segs {
		for len(seg) > 0 {
			n := recordLen(seg)
			fn(seg[:n])
			seg = seg[n:]
		}
	}
}

// drain commits every shard's pending records; readers call it so
// writes that happened before the read are visible in the segments.
func (s *Store) drain() {
	for i := range s.shards {
		s.flushShard(&s.shards[i])
	}
}

// Sync commits all buffered records, to the store and to every attached
// log, and returns the first write error an attached log met. Call it
// before closing a log or handing the store to an external reader; all
// Store readers drain implicitly.
func (s *Store) Sync() error {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, lw := range s.sinks {
		if err := lw.failed(); err != nil {
			return err
		}
	}
	return nil
}

// AddScene appends e as a scene row if its kind is journaled
// (scene.Journaled), and ignores it otherwise; it is a scene.Listener.
// It commits at once, under the store lock, so attached logs see scene
// and packet records in the order they enter the store.
func (s *Store) AddScene(e scene.Event) {
	if !scene.Journaled(e.Kind) {
		return
	}
	s.nScenes.Add(1)
	r := scene.AppendRecord(make([]byte, sceneHead, sceneHead+64), &e)
	r[0] = 'S'
	binary.BigEndian.PutUint32(r[1:], uint32(len(r)-sceneHead))
	s.mu.Lock()
	s.commit(r, len(r))
	s.mu.Unlock()
}

// Instrument registers the store's recording counters on reg. The
// callbacks read live atomics — no shard drain, no store lock — so a
// scrape never perturbs the recording hot path.
func (s *Store) Instrument(reg *obs.Registry) {
	reg.CounterFunc("poem_record_packets_total",
		"packet records appended (in/out/drop)", s.nPackets.Load)
	reg.CounterFunc("poem_record_scenes_total",
		"scene-change records appended", s.nScenes.Load)
	reg.CounterFunc("poem_record_batch_commits_total",
		"shard batches committed to the store's segments", s.nCommits.Load)
	reg.CounterFunc("poem_record_log_dropped_total",
		"records an attached streaming log failed to take after a write error (Sync returns the error)",
		s.nLogDropped.Load)
}

// PacketCount returns the number of packet records.
func (s *Store) PacketCount() int {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.packets
}

// SceneCount returns the number of scene records.
func (s *Store) SceneCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scenes
}

// ForEachPacket streams the packet records through fn in log order; fn
// must not block long (the store lock is held).
func (s *Store) ForEachPacket(fn func(Packet)) {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.each(func(r []byte) {
		if r[0] == 'P' {
			fn(decodePacket(r))
		}
	})
}

// Scenes returns the scene changes recorded in [from, to].
func (s *Store) Scenes(from, to vclock.Time) []scene.Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []scene.Event
	s.each(func(r []byte) {
		if at := recordAt(r); r[0] == 'S' && at >= from && at <= to {
			e, _ := scene.DecodeRecord(r[sceneHead:]) // AddScene encoded it, or Load decoded it
			out = append(out, e)
		}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Span returns the time range covered by the recording.
func (s *Store) Span() (from, to vclock.Time) {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	first := true
	s.each(func(r []byte) {
		t := recordAt(r)
		if first {
			from, to, first = t, t, false
			return
		}
		from, to = min(from, t), max(to, t)
	})
	return from, to
}
