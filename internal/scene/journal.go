package scene

// The scene journal is scene replication's one log. Under the scene lock
// every replicable event gets the next dense seq and, once KeepJournal
// has allocated the ring (a federation's coordinator does), is appended,
// encoded once, to it; a reader holds nothing but the seq it wants next
// (ReadJournal). The replicable events (Journaled) are add, remove, move,
// radios and pause. Link models and mobility stay peer-local: a link
// model is live code each peer configures, and a walker's effect
// journals as the NodeMoved events it emits. A reader whose seq is not
// in the ring takes the state instead (EncodeState): a pause record and
// one add record per node, split into parts at record boundaries; the
// state's hash is the canonical scene digest (Digest). A record
// (AppendRecord) is a scene change's one encoding: the recording
// (record.Store) stores the same records, so it holds what the journal
// holds.
// A follower applies both through its Replica, which drives the scene's
// ordinary mutators, so whatever listens to a scene sees a replicated
// change as it sees a local one.

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// JournalRecords and journalBytes bound the ring: the last JournalRecords
// replicable events, in at most journalBytes. The benchmark's churn
// workload moves ≈ 2 900 nodes/s at 37 bytes a move record, so the ring
// holds ≈ 5.6 s of that churn in ≈ 600 KiB; 1 MiB leaves room for
// radio-set records (10 bytes per radio) at the same count. A follower
// further behind — a longer partition, a cold join, a restart — costs one
// snapshot instead.
const (
	JournalRecords = 1 << 14
	journalBytes   = 1 << 20
)

var (
	// ErrOutOfSequence is Replica.Apply's verdict on a frame that does
	// not continue what the replica applied.
	ErrOutOfSequence = errors.New("scene: frame does not continue the replica's journal")
	errBadRecord     = errors.New("scene: malformed journal record or state")
)

var be = binary.BigEndian

// journal is the ring, guarded by Scene.mu. Record seq starts at byte
// pos[seq%JournalRecords] of all the bytes ever written; data holds the
// last journalBytes of them.
type journal struct {
	data, scratch    []byte
	pos              []uint64
	first, seq, head uint64 // oldest and newest seq held (first > seq while empty); bytes written
	digest, digestAt uint64 // the digest, and the seq+1 it was taken at
}

// at is where record seq starts; past the newest, the end of the bytes.
func (j *journal) at(seq uint64) uint64 {
	if seq > j.seq {
		return j.head
	}
	return j.pos[seq%JournalRecords]
}

// Journaled reports whether events of kind k are journaled and
// recorded; the others are peer-local (see the top of this file).
func Journaled(k EventKind) bool {
	switch k {
	case NodeAdded, NodeRemoved, NodeMoved, RadiosChanged, PausedChanged:
		return true
	}
	return false
}

func (s *Scene) journalLocked(e *Event) {
	if !Journaled(e.Kind) {
		return
	}
	j := &s.j
	if j.seq++; j.data == nil {
		j.first = j.seq + 1 // counted, not kept
		return
	}
	rec := AppendRecord(j.scratch[:0], e)
	j.scratch = rec
	// The oldest records leave until the new one fits both bounds.
	for ; j.first < j.seq && (j.seq-j.first >= JournalRecords ||
		j.head+uint64(len(rec))-j.at(j.first) > journalBytes); j.first++ {
	}
	j.pos[j.seq%JournalRecords] = j.head
	copy(j.data, rec[copy(j.data[j.head%journalBytes:], rec):])
	j.head += uint64(len(rec))
}

// KeepJournal allocates the ring: from now on the scene keeps its
// replicable events for ReadJournal. Without it a scene only counts them.
func (s *Scene) KeepJournal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j.data == nil {
		s.j.data, s.j.pos = make([]byte, journalBytes), make([]uint64, JournalRecords)
	}
}

// JournalSpan returns the oldest and newest seq the ring holds (first >
// last when it holds none); the newest is the seq of the scene's last
// replicable event (0 before one).
func (s *Scene) JournalSpan() (first, last uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.first, s.j.seq
}

// ReadJournal copies whole records from seq from on into a new slice — at
// least one, and no more than max bytes unless the first alone is larger
// — and returns them with their count. ok is false when the ring does not
// hold from, which has fallen off or was never kept: the reader needs
// EncodeState. Past the newest seq it reads nothing.
func (s *Scene) ReadJournal(from uint64, max int) (recs []byte, n int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &s.j
	if from < j.first {
		return nil, 0, false
	}
	end := from
	for ; end <= j.seq && (end == from || j.at(end+1)-j.at(from) <= uint64(max)); end++ {
	}
	off, size := j.at(from)%journalBytes, j.at(end)-j.at(from)
	recs = append(make([]byte, 0, size), j.data[off:min(off+size, journalBytes)]...)
	return append(recs, j.data[:size-uint64(len(recs))]...), int(end - from), true
}

// EncodeState returns the journal seq and the scene's state at it, in
// parts of at most max bytes split at node boundaries (a part is larger
// only when one node is). Each part is the state encoding's total length,
// the part's offset in it and its bytes, so a Replica reassembles them.
func (s *Scene) EncodeState(max int) (seq uint64, parts [][]byte) {
	s.mu.Lock()
	state, seq := s.appendStateLocked(nil), s.j.seq
	s.mu.Unlock()
	part := func(from, to int) []byte {
		b := be.AppendUint32(be.AppendUint32(make([]byte, 0, 8+to-from), uint32(len(state))), uint32(from))
		return append(b, state[from:to]...)
	}
	start, r := 0, reader(state)
	for len(r) > 0 {
		at := len(state) - len(r)
		if r.record(); len(state)-len(r)-start > max && at > start {
			parts, start = append(parts, part(start, at)), at
		}
	}
	return seq, append(parts, part(start, len(state)))
}

// Digest returns the journal seq and the hash of the state encoding at
// it: the canonical scene digest. Two scenes hold the same nodes,
// positions, radios and pause flag exactly when their digests agree;
// link models and walkers are outside it.
func (s *Scene) Digest() (seq, digest uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := &s.j; j.digestAt != j.seq+1 {
		j.scratch = s.appendStateLocked(j.scratch[:0])
		h := fnv.New64a()
		h.Write(j.scratch)
		j.digest, j.digestAt = h.Sum64(), j.seq+1
	}
	return s.j.seq, s.j.digest
}

// appendStateLocked encodes the replicated state canonically, as
// unstamped records: the pause flag, then every node by ascending id as
// the record that would add it.
func (s *Scene) appendStateLocked(b []byte) []byte {
	ids := make([]radio.NodeID, 0, len(s.ids))
	for id := range s.ids {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = AppendRecord(b, &Event{Kind: PausedChanged, Paused: s.paused})
	for _, id := range ids {
		n := s.tab.Peek(id)
		b = AppendRecord(b, &Event{Kind: NodeAdded, Node: id, Pos: n.Pos, Radios: n.Radios})
	}
	return b
}

// MaxRecordLen bounds every record AppendRecord emits for a scene and
// DecodeRecord accepts: an add with maxRadios radios.
const MaxRecordLen = 8 + 1 + 4 + 16 + 2 + 10*maxRadios

// AppendRecord appends the one encoding of a journaled event: its stamp,
// its kind, and what that kind changes — the pause flag, or the node and
// its new position and/or radios.
func AppendRecord(b []byte, e *Event) []byte {
	b = append(be.AppendUint64(b, uint64(e.At)), byte(e.Kind))
	if e.Kind == PausedChanged {
		return append(b, boolByte(e.Paused))
	}
	b = be.AppendUint32(b, uint32(e.Node))
	if e.Kind == NodeAdded || e.Kind == NodeMoved {
		b = appendPos(b, e.Pos)
	}
	if e.Kind == NodeAdded || e.Kind == RadiosChanged {
		b = appendRadios(b, e.Radios)
	}
	return b
}

func appendPos(b []byte, p geom.Vec2) []byte {
	return be.AppendUint64(be.AppendUint64(b, math.Float64bits(p.X)), math.Float64bits(p.Y))
}

func appendRadios(b []byte, rs []radio.Radio) []byte {
	b = be.AppendUint16(b, uint16(len(rs)))
	for _, r := range rs {
		b = be.AppendUint64(be.AppendUint16(b, uint16(r.Channel)), math.Float64bits(r.Range))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// reader decodes what the functions above encode. Reading past its end,
// or a malformed record, panics; DecodeRecord and decodeJournal turn
// that into errBadRecord.
type reader []byte

func (r *reader) take(n int) []byte {
	v := (*r)[:n]
	*r = (*r)[n:]
	return v
}

func (r *reader) u64() uint64 { return be.Uint64(r.take(8)) }
func (r *reader) u32() uint32 { return be.Uint32(r.take(4)) }

func (r *reader) pos() geom.Vec2 {
	return geom.V(math.Float64frombits(r.u64()), math.Float64frombits(r.u64()))
}

func (r *reader) radios() []radio.Radio {
	n := int(be.Uint16(r.take(2)))
	if n*10 > len(*r) {
		panic(errBadRecord) // before allocating for it
	}
	rs := make([]radio.Radio, n)
	for i := range rs {
		rs[i] = radio.Radio{Channel: radio.ChannelID(be.Uint16(r.take(2))), Range: math.Float64frombits(r.u64())}
	}
	return rs
}

func (r *reader) record() Event {
	e := Event{At: vclock.Time(r.u64()), Kind: EventKind(r.take(1)[0])}
	switch e.Kind {
	case PausedChanged:
		if v := r.take(1)[0]; v <= 1 {
			e.Paused = v == 1
			return e
		}
		panic(errBadRecord)
	case NodeAdded:
		e.Node, e.Pos, e.Radios = radio.NodeID(r.u32()), r.pos(), r.radios()
	case NodeMoved:
		e.Node, e.Pos = radio.NodeID(r.u32()), r.pos()
	case RadiosChanged:
		e.Node, e.Radios = radio.NodeID(r.u32()), r.radios()
	case NodeRemoved:
		e.Node = radio.NodeID(r.u32())
	default:
		panic(errBadRecord)
	}
	return e
}

// DecodeRecord decodes b as exactly one record, AppendRecord's inverse;
// any other b is an error.
func DecodeRecord(b []byte) (e Event, err error) {
	defer func() {
		if recover() != nil {
			e, err = Event{}, errBadRecord
		}
	}()
	r := reader(b)
	if e = r.record(); len(r) > 0 {
		panic(errBadRecord)
	}
	return e, nil
}

// decodeJournal decodes b as whole records; b that ends inside a record
// or holds a malformed one is errBadRecord.
func decodeJournal(b []byte) (recs []Event, err error) {
	defer func() {
		if recover() != nil {
			recs, err = nil, errBadRecord
		}
	}()
	for r := reader(b); len(r) > 0; {
		recs = append(recs, r.record())
	}
	return recs, nil
}

// apply performs one decoded record through the scene's own mutators.
func (s *Scene) apply(e *Event) error {
	switch e.Kind {
	case NodeAdded:
		return s.AddNode(e.Node, e.Pos, e.Radios)
	case NodeRemoved:
		s.RemoveNode(e.Node)
	case NodeMoved:
		s.MoveNode(e.Node, e.Pos)
	case RadiosChanged:
		s.SetRadios(e.Node, e.Radios)
	case PausedChanged:
		s.SetPaused(e.Paused)
	}
	return nil
}

// restore makes the scene hold a state encoding through its own
// mutators, touching only the nodes that differ: one missing from the
// state is removed, a new one added, a moved one moved, one whose radios
// differ retuned. A malformed or non-canonical state changes nothing.
func (s *Scene) restore(state []byte) error {
	recs, err := decodeJournal(state)
	keep := make(map[radio.NodeID]bool, len(recs))
	for i, e := range recs {
		if e.At != 0 || (i == 0) != (e.Kind == PausedChanged) || i > 0 && e.Kind != NodeAdded ||
			i > 1 && recs[i-1].Node >= e.Node {
			err = errBadRecord
		}
		keep[e.Node] = i > 0
	}
	if err != nil || len(recs) == 0 {
		return errBadRecord
	}
	for _, id := range s.NodeIDs() {
		if !keep[id] {
			s.RemoveNode(id)
		}
	}
	for _, e := range recs[1:] {
		cur, ok := s.Node(e.Node)
		if !ok {
			err = errors.Join(err, s.AddNode(e.Node, e.Pos, e.Radios))
			continue
		}
		if string(appendPos(nil, cur.Pos)) != string(appendPos(nil, e.Pos)) {
			s.MoveNode(e.Node, e.Pos)
		}
		if string(appendRadios(nil, cur.Radios)) != string(appendRadios(nil, e.Radios)) {
			s.SetRadios(e.Node, e.Radios)
		}
	}
	s.SetPaused(recs[0].Paused)
	return err
}

// Replica is a follower's side of a coordinator's journal: the journal it
// follows, named by an origin the coordinator draws when it starts (0
// before the first state), the seq applied in it, and the state parts it
// is reassembling. It applies a journal frame of its origin only if the
// frame reaches past the applied seq without skipping one, so a
// restarted coordinator's records never land on the state of the one
// before; and a state whole, once its last part arrives, taking the
// state's origin.
type Replica struct {
	sc              *Scene
	mu              sync.Mutex
	origin, applied uint64
	snap            [2]uint64 // origin and seq of the state in parts
	parts           []byte
}

// NewReplica returns s's replica, following no journal yet.
func NewReplica(s *Scene) *Replica { return &Replica{sc: s} }

// Apply takes one frame of journal origin: records starting at seq, or
// (snapshot) one EncodeState part taken at seq. It returns the stamp of
// the last record applied and whether a state was restored. A journal
// frame of another origin, one starting past the applied seq + 1, one
// holding nothing new, and a part that does not continue the state being
// reassembled are dropped with ErrOutOfSequence, a malformed one with
// errBadRecord; none of them changes the scene. A record that fails to
// apply does not stop the rest, and its error is returned.
func (r *Replica) Apply(origin, seq uint64, snapshot bool, b []byte) (at vclock.Time, restored bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if snapshot {
		restored, err = r.partLocked(origin, seq, b)
		return 0, restored, err
	}
	if origin != r.origin || seq > r.applied+1 {
		return 0, false, ErrOutOfSequence
	}
	recs, err := decodeJournal(b)
	if err != nil {
		return 0, false, err
	}
	skip := r.applied + 1 - seq
	if skip >= uint64(len(recs)) {
		return 0, false, ErrOutOfSequence
	}
	for _, e := range recs[skip:] {
		err = errors.Join(err, r.sc.apply(&e))
	}
	r.applied = seq + uint64(len(recs)) - 1
	return recs[len(recs)-1].At, false, err
}

// partLocked adds one state part — total length, offset, bytes — and
// restores the state once it is whole.
func (r *Replica) partLocked(origin, seq uint64, b []byte) (bool, error) {
	if len(b) < 8 {
		return false, errBadRecord
	}
	total, off, at := int(be.Uint32(b)), int(be.Uint32(b[4:])), [2]uint64{origin, seq}
	switch {
	case off == 0:
		r.snap, r.parts = at, r.parts[:0]
	case at != r.snap || off != len(r.parts):
		return false, ErrOutOfSequence
	}
	if r.parts = append(r.parts, b[8:]...); len(r.parts) < total {
		return false, nil
	}
	state := r.parts
	if r.parts = nil; len(state) != total {
		return false, errBadRecord
	}
	err := r.sc.restore(state)
	if errors.Is(err, errBadRecord) {
		return false, err
	}
	r.origin, r.applied = origin, seq
	return true, err
}

// Applied returns the journal followed and the seq applied in it.
func (r *Replica) Applied() (origin, applied uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.origin, r.applied
}

// State is Applied and the scene's digest, read together.
func (r *Replica) State() (origin, applied, digest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, digest = r.sc.Digest()
	return r.origin, r.applied, digest
}
