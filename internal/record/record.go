// Package record is PoEm's recording subsystem. The paper's server runs
// dedicated recording threads (§3.2 step 7): one collects the complete
// information of every incoming/outgoing packet, another gathers the
// varying scene, both writing to a SQL database over ODBC for later
// statistics and post-emulation replay.
//
// This reproduction substitutes an embedded append-only store with
// in-memory indexes and an optional binary snapshot format — the write
// path (concurrent recorders) and the read path (statistics queries,
// replay) are preserved without the external database dependency.
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/radio"
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

// Scene is one scene-change event (node moved, range set, channel
// switched…), recorded for post-emulation replay.
type Scene struct {
	At     vclock.Time
	Node   radio.NodeID
	Op     string // e.g. "add", "move", "radios", "remove", "pause"
	Detail string // human-readable parameters
	X, Y   float64
}

// Store is the append-only recording database. All methods are safe for
// concurrent use; the server's recording goroutines append while
// statistics readers iterate snapshots.
//
// Packet appends — the recording hot path, one or more per forwarded
// packet — do not take the store lock. They land in one of several
// shards, chosen by the record's (Src, Relay) stream key so records of
// one stream stay in order, and each shard batch-commits to the main
// slice (and any attached logs) once it fills. Readers drain the shards
// first, so every record written before a read is visible to it; the
// batching only defers *where* a record lives, never whether it is
// seen. On a crash, at most one uncommitted batch per shard is lost to
// an attached log — the log format already tolerates a truncated tail.
type Store struct {
	mu      sync.RWMutex
	packets []Packet
	scenes  []Scene
	sinks   []*LogWriter // attached streaming logs (see wal.go)

	shards [packetShards]packetShard

	// Live counters, readable without draining the shards (a /metrics
	// scrape must not force batch commits or take the store lock).
	nPackets atomic.Uint64
	nScenes  atomic.Uint64
	nCommits atomic.Uint64 // shard batch commits into the main slice
}

// packetShards spreads concurrent recorders; a power of two so the
// stream hash reduces with a mask.
const packetShards = 16

// packetFlushBatch is how many records a shard buffers before
// committing them to the main slice and the attached logs in one lock
// acquisition.
const packetFlushBatch = 256

// packetShard is one striped append buffer.
type packetShard struct {
	mu    sync.Mutex
	buf   []Packet
	spare []Packet // recycled storage for the next buf

	// commitMu serializes take→commit so batches of this shard enter
	// the main slice in buffer-prefix order, keeping per-stream FIFO.
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
	sh.buf = append(sh.buf, p)
	full := len(sh.buf) >= packetFlushBatch
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
		s.packets = append(s.packets, batch...)
		for _, lw := range s.sinks {
			lw.packetBatch(batch) // best effort; the store is authoritative
		}
		s.mu.Unlock()
	}
	sh.mu.Lock()
	if sh.spare == nil {
		sh.spare = batch[:0]
	}
	sh.mu.Unlock()
	sh.commitMu.Unlock()
}

// drain commits every shard's pending records; readers call it so
// writes that happened before the read are visible in s.packets.
func (s *Store) drain() {
	for i := range s.shards {
		s.flushShard(&s.shards[i])
	}
}

// Sync commits all buffered records and flushes every attached log.
// Call it before closing a log or handing the store to an external
// reader; all Store readers drain implicitly.
func (s *Store) Sync() error {
	s.drain()
	s.mu.RLock()
	sinks := append([]*LogWriter(nil), s.sinks...)
	s.mu.RUnlock()
	for _, lw := range sinks {
		if err := lw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// AddScene appends a scene record.
func (s *Store) AddScene(e Scene) {
	s.nScenes.Add(1)
	s.mu.Lock()
	s.scenes = append(s.scenes, e)
	sinks := s.sinks
	s.mu.Unlock()
	for _, lw := range sinks {
		lw.Scene(e)
	}
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
		"shard batches committed to the main slice", s.nCommits.Load)
}

// PacketCount returns the number of packet records.
func (s *Store) PacketCount() int {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.packets)
}

// SceneCount returns the number of scene records.
func (s *Store) SceneCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.scenes)
}

// Packets returns a copy of all packet records matching the filter.
// A zero Filter matches everything.
func (s *Store) Packets(f Filter) []Packet {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Packet
	for _, p := range s.packets {
		if f.match(p) {
			out = append(out, p)
		}
	}
	return out
}

// ForEachPacket streams records through fn without copying the slice;
// fn must not block long (the store lock is held).
func (s *Store) ForEachPacket(fn func(Packet)) {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.packets {
		fn(p)
	}
}

// Scenes returns a copy of all scene records in [from, to].
func (s *Store) Scenes(from, to vclock.Time) []Scene {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Scene
	for _, e := range s.scenes {
		if e.At >= from && e.At <= to {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Span returns the time range covered by the recording.
func (s *Store) Span() (from, to vclock.Time) {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	first := true
	consider := func(t vclock.Time) {
		if first {
			from, to, first = t, t, false
			return
		}
		if t < from {
			from = t
		}
		if t > to {
			to = t
		}
	}
	for _, p := range s.packets {
		consider(p.At)
	}
	for _, e := range s.scenes {
		consider(e.At)
	}
	return from, to
}

// Filter selects packet records. Zero-valued fields are wildcards,
// except Kind (0 matches all kinds) and the time bounds (both zero
// means unbounded).
type Filter struct {
	Kind     PacketKind
	Flow     uint16
	FlowSet  bool
	Src, Dst radio.NodeID
	SrcSet   bool
	DstSet   bool
	From, To vclock.Time
}

func (f Filter) match(p Packet) bool {
	if f.Kind != 0 && p.Kind != f.Kind {
		return false
	}
	if f.FlowSet && p.Flow != f.Flow {
		return false
	}
	if f.SrcSet && p.Src != f.Src {
		return false
	}
	if f.DstSet && p.Dst != f.Dst {
		return false
	}
	if f.To != 0 || f.From != 0 {
		if p.At < f.From || p.At > f.To {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Binary snapshot persistence

var (
	magic = [4]byte{'P', 'o', 'E', 'm'}
	// ErrBadSnapshot reports a corrupt or foreign snapshot stream.
	ErrBadSnapshot = errors.New("record: bad snapshot")
)

const snapshotVersion = 1

// Save writes a binary snapshot of the store.
func (s *Store) Save(w io.Writer) error {
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint16(snapshotVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint64(len(s.packets))); err != nil {
		return err
	}
	for i := range s.packets {
		if err := writePacket(bw, &s.packets[i]); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.BigEndian, uint64(len(s.scenes))); err != nil {
		return err
	}
	for i := range s.scenes {
		if err := writeScene(bw, &s.scenes[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a snapshot previously written by Save into a fresh store.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	var ver uint16
	if err := binary.Read(br, binary.BigEndian, &ver); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, ver)
	}
	s := NewStore()
	var np uint64
	if err := binary.Read(br, binary.BigEndian, &np); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if np > 1<<32 {
		return nil, fmt.Errorf("%w: implausible packet count %d", ErrBadSnapshot, np)
	}
	// The counts come from the file: reserve a bounded amount up front
	// and let anything larger be backed by records actually read, so a
	// hostile header cannot make Load allocate gigabytes.
	s.packets = make([]Packet, 0, min(np, loadPrealloc))
	for i := uint64(0); i < np; i++ {
		var p Packet
		if err := readPacket(br, &p); err != nil {
			return nil, fmt.Errorf("%w: packet %d: %v", ErrBadSnapshot, i, err)
		}
		s.packets = append(s.packets, p)
	}
	var ns uint64
	if err := binary.Read(br, binary.BigEndian, &ns); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if ns > 1<<32 {
		return nil, fmt.Errorf("%w: implausible scene count %d", ErrBadSnapshot, ns)
	}
	s.scenes = make([]Scene, 0, min(ns, loadPrealloc))
	for i := uint64(0); i < ns; i++ {
		var sc Scene
		if err := readScene(br, &sc); err != nil {
			return nil, fmt.Errorf("%w: scene %d: %v", ErrBadSnapshot, i, err)
		}
		s.scenes = append(s.scenes, sc)
	}
	return s, nil
}

// loadPrealloc is how many records Load reserves on the strength of a
// snapshot's header alone.
const loadPrealloc = 1 << 16

func writePacket(w io.Writer, p *Packet) error {
	var buf [40]byte
	buf[0] = byte(p.Kind)
	binary.BigEndian.PutUint64(buf[1:], uint64(p.At))
	binary.BigEndian.PutUint64(buf[9:], uint64(p.Stamp))
	binary.BigEndian.PutUint32(buf[17:], uint32(p.Src))
	binary.BigEndian.PutUint32(buf[21:], uint32(p.Dst))
	binary.BigEndian.PutUint32(buf[25:], uint32(p.Relay))
	binary.BigEndian.PutUint16(buf[29:], uint16(p.Channel))
	binary.BigEndian.PutUint16(buf[31:], p.Flow)
	binary.BigEndian.PutUint32(buf[33:], p.Seq)
	// buf[37:40] hold the low 3 bytes of Size (16 MiB cap is plenty).
	buf[37] = byte(p.Size >> 16)
	buf[38] = byte(p.Size >> 8)
	buf[39] = byte(p.Size)
	_, err := w.Write(buf[:])
	return err
}

func readPacket(r io.Reader, p *Packet) error {
	var buf [40]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	p.Kind = PacketKind(buf[0])
	p.At = vclock.Time(binary.BigEndian.Uint64(buf[1:]))
	p.Stamp = vclock.Time(binary.BigEndian.Uint64(buf[9:]))
	p.Src = radio.NodeID(binary.BigEndian.Uint32(buf[17:]))
	p.Dst = radio.NodeID(binary.BigEndian.Uint32(buf[21:]))
	p.Relay = radio.NodeID(binary.BigEndian.Uint32(buf[25:]))
	p.Channel = radio.ChannelID(binary.BigEndian.Uint16(buf[29:]))
	p.Flow = binary.BigEndian.Uint16(buf[31:])
	p.Seq = binary.BigEndian.Uint32(buf[33:])
	p.Size = uint32(buf[37])<<16 | uint32(buf[38])<<8 | uint32(buf[39])
	return nil
}

func writeScene(w io.Writer, e *Scene) error {
	var buf [28]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(e.At))
	binary.BigEndian.PutUint32(buf[8:], uint32(e.Node))
	binary.BigEndian.PutUint64(buf[12:], uint64(int64(e.X*1000)))
	binary.BigEndian.PutUint64(buf[20:], uint64(int64(e.Y*1000)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	if err := writeString(w, e.Op); err != nil {
		return err
	}
	return writeString(w, e.Detail)
}

func readScene(r io.Reader, e *Scene) error {
	var buf [28]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	e.At = vclock.Time(binary.BigEndian.Uint64(buf[0:]))
	e.Node = radio.NodeID(binary.BigEndian.Uint32(buf[8:]))
	e.X = float64(int64(binary.BigEndian.Uint64(buf[12:]))) / 1000
	e.Y = float64(int64(binary.BigEndian.Uint64(buf[20:]))) / 1000
	var err error
	if e.Op, err = readString(r); err != nil {
		return err
	}
	e.Detail, err = readString(r)
	return err
}

func writeString(w io.Writer, s string) error {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(s)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	b := make([]byte, binary.BigEndian.Uint16(n[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
