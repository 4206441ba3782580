// Package scene is the emulation server's live model of the MANET being
// emulated: node positions, radio/channel assignments, per-channel link
// models, and mobility. It is the layer the paper's GUI manipulates —
// dragging a VMN calls MoveNode, the configuration dialog calls
// SetRadios/SetLinkModel — so every control surface (CLI, scenario
// script, test) drives the same API and real-time scene construction is
// preserved without the graphical front end.
//
// The scene emits an Event for every change, and the server notifies
// affected clients. The journaled ones (Journaled) also go to the
// scene's journal (journal.go), which federated followers read, and,
// encoded by the same AppendRecord, to the recording for post-emulation
// replay.
package scene

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// EventKind classifies scene changes.
type EventKind uint8

// Scene event kinds.
const (
	NodeAdded EventKind = iota + 1
	NodeRemoved
	NodeMoved
	RadiosChanged
	LinkModelChanged
	MobilityChanged
	PausedChanged
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case NodeAdded:
		return "add"
	case NodeRemoved:
		return "remove"
	case NodeMoved:
		return "move"
	case RadiosChanged:
		return "radios"
	case LinkModelChanged:
		return "linkmodel"
	case MobilityChanged:
		return "mobility"
	case PausedChanged:
		return "pause"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one scene change.
type Event struct {
	At      vclock.Time
	Kind    EventKind
	Node    radio.NodeID
	Pos     geom.Vec2
	Radios  []radio.Radio
	Channel radio.ChannelID
	Paused  bool // a PausedChanged event's new flag
}

// Listener receives scene events. Listeners run synchronously under the
// scene lock and must be fast; hand heavy work to a goroutine.
type Listener func(Event)

// NodeSnapshot is a read-only copy of one node's state.
type NodeSnapshot struct {
	ID     radio.NodeID
	Pos    geom.Vec2
	Radios []radio.Radio
	Mobile bool
}

// Scene is safe for concurrent use. Mutations serialize on mu; the
// dispatch read path (Dispatch/View, see view.go) is lock-free over
// epoch snapshots published from under the same mutex.
type Scene struct {
	mu        sync.Mutex
	clk       vclock.Clock
	tab       *radio.IndexedTables
	models    map[radio.ChannelID]linkmodel.Model
	defModel  linkmodel.Model
	walkers   map[radio.NodeID]mobility.Walker
	ids       map[radio.NodeID]bool
	listeners []Listener
	paused    bool
	seed      int64
	nextSeed  int64

	// walkerIDs caches the sorted walker iteration order for Tick;
	// nil means invalidated (a walker was attached or detached).
	walkerIDs []radio.NodeID

	// Dispatch-view state (view.go). views is the published epoch; the
	// rest is guarded by mu. dirty names the channels the next publish
	// gives a new view (the rows to put in it are the table's to
	// report), epoch numbers the publishes, rowsBy is publishLocked's
	// per-channel row count, reused.
	views           atomic.Pointer[viewSet]
	dirty           map[radio.ChannelID]struct{}
	rebuilds        map[radio.ChannelID]uint64
	allDirty        bool
	epoch           uint64
	rowsBy          map[radio.ChannelID]int
	rowsRepublished uint64
	// rebuildObs, when set, observes each channel rebuild from inside
	// publishLocked (see SetRebuildObserver).
	rebuildObs func(ch radio.ChannelID, rows int)

	// tickHist, when instrumented, records the wall cost of each
	// mobility tick (walker advance + view republish); reg is the
	// registry each channel's rebuild counter joins at its first view.
	tickHist *obs.Histogram
	reg      *obs.Registry

	// j is the replication journal (journal.go).
	j journal
}

// New creates a scene over the given neighbor table, which it takes
// over: the dispatch views share the table's rows, so nothing else may
// mutate or Flush it. clk supplies event timestamps; seed makes
// mobility deterministic.
func New(tab *radio.IndexedTables, clk vclock.Clock, seed int64) *Scene {
	s := &Scene{
		clk:      clk,
		tab:      tab,
		models:   make(map[radio.ChannelID]linkmodel.Model),
		defModel: linkmodel.Default(),
		walkers:  make(map[radio.NodeID]mobility.Walker),
		ids:      make(map[radio.NodeID]bool),
		seed:     seed,
		nextSeed: seed,
		dirty:    make(map[radio.ChannelID]struct{}),
		rebuilds: make(map[radio.ChannelID]uint64),
		rowsBy:   make(map[radio.ChannelID]int),
		j:        journal{first: 1},
	}
	s.views.Store(&viewSet{defModel: s.defModel})
	return s
}

// Instrument registers the scene's metrics on reg: the node-count
// gauge, the dispatch-view rebuild counters (the aggregate, and one per
// channel from the channel's first view on), the rows those rebuilds
// republished, and the mobility-tick cost histogram.
func (s *Scene) Instrument(reg *obs.Registry) {
	reg.Gauge("poem_scene_nodes", "VMNs in the emulated scene", func() float64 {
		return float64(s.Len())
	})
	reg.CounterFunc("poem_scene_view_rebuilds_total",
		"dispatch-view rebuilds across all channels", func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			var n uint64
			for _, c := range s.rebuilds {
				n += c
			}
			return n
		})
	reg.CounterFunc("poem_scene_rows_republished_total",
		"neighbor rows stored in or dropped from dispatch views", s.RowsRepublished)
	s.mu.Lock()
	s.tickHist = reg.Histogram("poem_scene_tick_ns", "wall cost of one mobility tick")
	s.reg = reg
	for ch := range s.rebuilds {
		s.instrumentChannelLocked(ch)
	}
	s.mu.Unlock()
}

// instrumentChannelLocked registers ch's view rebuild counter. Called
// with mu held; the callback takes mu at scrape time, outside the
// registry's lock.
func (s *Scene) instrumentChannelLocked(ch radio.ChannelID) {
	s.reg.CounterFunc(obs.Labeled("poem_scene_channel_view_rebuilds_total", "channel", strconv.Itoa(int(ch))),
		"dispatch-view rebuilds of this channel", func() uint64 { return s.ViewRebuilds(ch) })
}

// Subscribe registers a listener for all subsequent events.
func (s *Scene) Subscribe(l Listener) {
	s.mu.Lock()
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
}

func (s *Scene) emitLocked(e Event) {
	e.At = s.clk.Now()
	s.journalLocked(&e)
	for _, l := range s.listeners {
		l(e)
	}
}

// maxRadios is the most radios a node can carry: a journal record
// counts them in 16 bits.
const maxRadios = math.MaxUint16

// AddNode places a new VMN. It fails if the ID exists or radios holds
// more than maxRadios.
func (s *Scene) AddNode(id radio.NodeID, pos geom.Vec2, radios []radio.Radio) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkNewLocked(id, radios); err != nil {
		return err
	}
	s.tab.AddNode(&radio.Node{ID: id, Pos: pos, Radios: radios})
	s.ids[id] = true
	s.markNodeDirtyLocked(radios)
	s.emitLocked(Event{Kind: NodeAdded, Node: id, Pos: pos, Radios: append([]radio.Radio(nil), radios...)})
	s.publishLocked()
	return nil
}

// NodeSpec is one node of a bulk AddNodes population.
type NodeSpec struct {
	ID     radio.NodeID
	Pos    geom.Vec2
	Radios []radio.Radio
}

// AddNodes adds a whole population in one mutation, publishing the
// dispatch views once at the end. Either way a node costs its own row
// and one entry in each neighbor's; what AddNodes saves over a loop of
// AddNode is the per-publish overhead and the repeated copying of a row
// that gains several neighbors — each row is published once instead of
// once per neighbor. Fails atomically per node: the first duplicate id
// stops the sweep, leaving the already-added prefix published and valid.
func (s *Scene) AddNodes(nodes []NodeSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range nodes {
		n := &nodes[i]
		if err := s.checkNewLocked(n.ID, n.Radios); err != nil {
			s.publishLocked()
			return err
		}
		s.tab.AddNode(&radio.Node{ID: n.ID, Pos: n.Pos, Radios: n.Radios})
		s.ids[n.ID] = true
		s.markNodeDirtyLocked(n.Radios)
		s.emitLocked(Event{Kind: NodeAdded, Node: n.ID, Pos: n.Pos, Radios: append([]radio.Radio(nil), n.Radios...)})
	}
	s.publishLocked()
	return nil
}

// checkNewLocked refuses a node AddNode cannot add.
func (s *Scene) checkNewLocked(id radio.NodeID, radios []radio.Radio) error {
	if s.tab.Peek(id) != nil {
		return fmt.Errorf("scene: node %v already exists", id)
	}
	if len(radios) > maxRadios {
		return fmt.Errorf("scene: node %v has %d radios, more than %d", id, len(radios), maxRadios)
	}
	return nil
}

// RemoveNode deletes a VMN (e.g. "moving out some nodes" to emulate an
// attack, per §2.2). Unknown IDs are ignored.
func (s *Scene) RemoveNode(id radio.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.tab.Peek(id)
	if n == nil {
		return
	}
	s.markNodeDirtyLocked(n.Radios)
	s.tab.RemoveNode(id)
	if _, ok := s.walkers[id]; ok {
		delete(s.walkers, id)
		s.walkerIDs = nil
	}
	delete(s.ids, id)
	s.emitLocked(Event{Kind: NodeRemoved, Node: id})
	s.publishLocked()
}

// MoveNode teleports a VMN — the GUI drag-and-drop. It detaches any
// mobility walker (the operator took manual control).
func (s *Scene) MoveNode(id radio.NodeID, pos geom.Vec2) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.tab.Peek(id)
	if n == nil {
		return
	}
	if _, ok := s.walkers[id]; ok {
		delete(s.walkers, id)
		s.walkerIDs = nil
	}
	s.tab.Move(id, pos)
	s.markNodeDirtyLocked(n.Radios)
	s.emitLocked(Event{Kind: NodeMoved, Node: id, Pos: pos})
	s.publishLocked()
}

// SetRadios replaces a VMN's radio set: channel switches, range
// changes, adding or removing radios. It ignores an unknown ID and a
// set of more than maxRadios.
func (s *Scene) SetRadios(id radio.NodeID, radios []radio.Radio) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.tab.Peek(id)
	if n == nil || len(radios) > maxRadios {
		return
	}
	s.markRadiosDirtyLocked(n.Radios, radios)
	s.tab.SetRadios(id, radios)
	s.emitLocked(Event{Kind: RadiosChanged, Node: id, Radios: append([]radio.Radio(nil), radios...)})
	s.publishLocked()
}

// SetRange adjusts the range of every radio of id tuned to ch — the
// Table 2 step 2 operation ("shrink the radio range of VMN1").
func (s *Scene) SetRange(id radio.NodeID, ch radio.ChannelID, r float64) {
	s.mu.Lock()
	n := s.tab.Peek(id)
	if n == nil {
		s.mu.Unlock()
		return
	}
	radios := append([]radio.Radio(nil), n.Radios...)
	changed := false
	for i := range radios {
		if radios[i].Channel == ch && radios[i].Range != r {
			radios[i].Range = r
			changed = true
		}
	}
	if !changed {
		s.mu.Unlock()
		return
	}
	s.tab.SetRadios(id, radios)
	s.markChannelDirtyLocked(ch)
	s.emitLocked(Event{Kind: RadiosChanged, Node: id, Radios: radios})
	s.publishLocked()
	s.mu.Unlock()
}

// SetMobility attaches a mobility model to a VMN, starting from its
// current position at the current emulation time.
func (s *Scene) SetMobility(id radio.NodeID, m mobility.Model) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.tab.Peek(id)
	if n == nil {
		return
	}
	s.nextSeed++
	s.walkers[id] = m.NewWalker(n.Pos, rand.New(rand.NewSource(s.nextSeed)))
	s.walkerIDs = nil
	s.emitLocked(Event{Kind: MobilityChanged, Node: id, Pos: n.Pos})
}

// ClearMobility freezes a VMN in place.
func (s *Scene) ClearMobility(id radio.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.walkers[id]; !ok {
		return
	}
	delete(s.walkers, id)
	s.walkerIDs = nil
	s.emitLocked(Event{Kind: MobilityChanged, Node: id})
}

// SetLinkModel configures the wireless model for one channel.
func (s *Scene) SetLinkModel(ch radio.ChannelID, m linkmodel.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[ch] = m
	s.markChannelDirtyLocked(ch)
	s.emitLocked(Event{Kind: LinkModelChanged, Channel: ch})
	s.publishLocked()
	return nil
}

// SetDefaultLinkModel configures the model for channels without an
// explicit one.
func (s *Scene) SetDefaultLinkModel(m linkmodel.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.defModel = m
	s.allDirty = true
	s.emitLocked(Event{Kind: LinkModelChanged})
	s.publishLocked()
	return nil
}

// SetPaused stops (or resumes) mobility ticking.
func (s *Scene) SetPaused(p bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paused == p {
		return
	}
	s.paused = p
	s.emitLocked(Event{Kind: PausedChanged, Paused: p})
}

// Paused reports whether mobility is paused.
func (s *Scene) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

// Tick advances every mobility walker to time now and updates the
// neighbor tables. The server runs this on a fixed cadence. Dispatch
// views are republished once per tick: each channel touched by any of
// the moves is rebuilt exactly once, however many walkers moved on it.
func (s *Scene) Tick(now vclock.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paused {
		return
	}
	if s.tickHist != nil {
		start := time.Now()
		defer func() { s.tickHist.Observe(time.Since(start)) }()
	}
	// Deterministic iteration order keeps runs reproducible. The sorted
	// slice is cached; attaching or detaching a walker invalidates it.
	if s.walkerIDs == nil {
		s.walkerIDs = make([]radio.NodeID, 0, len(s.walkers))
		for id := range s.walkers {
			s.walkerIDs = append(s.walkerIDs, id)
		}
		sort.Slice(s.walkerIDs, func(i, j int) bool { return s.walkerIDs[i] < s.walkerIDs[j] })
	}
	for _, id := range s.walkerIDs {
		w := s.walkers[id]
		pos := w.Pos(now)
		n := s.tab.Peek(id)
		if n == nil || n.Pos == pos {
			continue
		}
		s.tab.Move(id, pos)
		s.markNodeDirtyLocked(n.Radios)
		s.emitLocked(Event{Kind: NodeMoved, Node: id, Pos: pos})
	}
	s.publishLocked()
}

// ---------------------------------------------------------------------------
// Queries (the dispatcher's read path)

// Neighbors returns NT(id, ch) under the current scene.
func (s *Scene) Neighbors(id radio.NodeID, ch radio.ChannelID) []radio.Neighbor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Neighbors(id, ch)
}

// Node returns a copy of a node's state.
func (s *Scene) Node(id radio.NodeID) (radio.Node, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Node(id)
}

// HasNode reports whether id exists. It answers from the id set: Node
// copies the node and its radios, which every registration paid just to
// hear yes.
func (s *Scene) HasNode(id radio.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids[id]
}

// ModelFor returns the link model governing channel ch.
func (s *Scene) ModelFor(ch radio.ChannelID) linkmodel.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.models[ch]; ok {
		return m
	}
	return s.defModel
}

// Snapshot returns a copy of all node states, sorted by ID.
func (s *Scene) Snapshot() []NodeSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeSnapshot, 0, len(s.ids))
	for id := range s.ids {
		n, _ := s.tab.Node(id)
		_, mobile := s.walkers[id]
		out = append(out, NodeSnapshot{ID: id, Pos: n.Pos, Radios: n.Radios, Mobile: mobile})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodeIDs returns all node IDs, sorted.
func (s *Scene) NodeIDs() []radio.NodeID {
	snap := s.Snapshot()
	out := make([]radio.NodeID, len(snap))
	for i, n := range snap {
		out[i] = n.ID
	}
	return out
}

// Len returns the number of nodes.
func (s *Scene) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Len()
}
