// Package replay reconstructs an emulation run from its recording —
// the paper's post-emulation replay feature ("a GUI-based emulator that
// can replay the scenario after emulation"). The scene timeline is
// rebuilt from the recorded scene events, packet activity from the
// packet records, and both can be rendered frame by frame or summarized
// per window.
package replay

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/render"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// NodeState is one node's reconstructed state at a point in time.
type NodeState struct {
	ID     radio.NodeID
	Pos    geom.Vec2
	Radios []radio.Radio
	LastOp scene.EventKind // the node's last recorded change
}

// Replayer replays a recording.
type Replayer struct {
	scenes []scene.Event
	store  *record.Store
	from   vclock.Time
	to     vclock.Time
}

// New builds a replayer over a recording.
func New(store *record.Store) *Replayer {
	from, to := store.Span()
	return &Replayer{
		scenes: store.Scenes(from, to),
		store:  store,
		from:   from,
		to:     to,
	}
}

// Span returns the recording's time range.
func (r *Replayer) Span() (vclock.Time, vclock.Time) { return r.from, r.to }

// StateAt reconstructs all node states at emulation time t by folding
// the scene events up to and including t.
func (r *Replayer) StateAt(t vclock.Time) []NodeState {
	states := make(map[radio.NodeID]*NodeState)
	for _, e := range r.scenes {
		if e.At > t {
			break
		}
		switch s := states[e.Node]; {
		case e.Kind == scene.NodeAdded:
			states[e.Node] = &NodeState{ID: e.Node, Pos: e.Pos, Radios: e.Radios, LastOp: e.Kind}
		case e.Kind == scene.NodeRemoved:
			delete(states, e.Node)
		case s == nil: // a change to a node the recording never added
		case e.Kind == scene.NodeMoved:
			s.Pos, s.LastOp = e.Pos, e.Kind
		case e.Kind == scene.RadiosChanged:
			s.Radios, s.LastOp = e.Radios, e.Kind
		}
	}
	out := make([]NodeState, 0, len(states))
	for _, s := range states {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Region returns the bounding box of every position ever recorded,
// padded slightly, for rendering.
func (r *Replayer) Region() geom.Rect {
	first := true
	var min, max geom.Vec2
	for _, e := range r.scenes {
		if e.Kind != scene.NodeAdded && e.Kind != scene.NodeMoved {
			continue
		}
		p := e.Pos
		if first {
			min, max, first = p, p, false
			continue
		}
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	if first {
		return geom.R(0, 0, 100, 100)
	}
	pad := 10.0
	return geom.R(min.X-pad, min.Y-pad, max.X+pad, max.Y+pad)
}

// FrameAt renders the scene at time t as ASCII.
func (r *Replayer) FrameAt(t vclock.Time, w, h int) string {
	states := r.StateAt(t)
	marks := make([]render.Mark, len(states))
	for i, s := range states {
		marks[i] = render.Mark{ID: uint32(s.ID), Pos: s.Pos, Note: s.LastOp.String()}
	}
	header := fmt.Sprintf("t=%v  nodes=%d\n", t, len(states))
	return header + render.Frame(marks, r.Region(), w, h)
}

// WindowStats summarizes packet activity in one replay window.
type WindowStats struct {
	From, To  vclock.Time
	Ingress   int // packets received from clients
	Delivered int // packets forwarded to clients
	Dropped   int // link-model drops
}

// Activity returns per-window packet counts across the recording.
func (r *Replayer) Activity(window time.Duration) []WindowStats {
	if window <= 0 {
		window = time.Second
	}
	buckets := make(map[int64]*WindowStats)
	r.store.ForEachPacket(func(p record.Packet) {
		k := int64(p.At-r.from) / int64(window)
		b := buckets[k]
		if b == nil {
			b = &WindowStats{
				From: r.from.Add(time.Duration(k) * window),
				To:   r.from.Add(time.Duration(k+1) * window),
			}
			buckets[k] = b
		}
		switch p.Kind {
		case record.PacketIn:
			b.Ingress++
		case record.PacketOut:
			b.Delivered++
		case record.PacketDrop:
			b.Dropped++
		}
	})
	keys := make([]int64, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]WindowStats, len(keys))
	for i, k := range keys {
		out[i] = *buckets[k]
	}
	return out
}

// Totals is the recording's whole-run activity summary: the per-kind
// record counts plus the delivered-packet multiset.
type Totals struct {
	Ingress   int // PacketIn records
	Delivered int // PacketOut records
	Dropped   int // PacketDrop records
	// DeliveredSet counts each (src, relay, flow, seq) delivery with its
	// multiplicity. The chaos harness compares it against the live run's
	// delivery ledger: a recording replays faithfully exactly when the
	// two multisets are equal.
	DeliveredSet record.Multiset
}

// Totals replays the full recording once and folds every packet record
// into whole-run totals.
func (r *Replayer) Totals() Totals {
	t := Totals{DeliveredSet: record.NewMultiset()}
	r.store.ForEachPacket(func(p record.Packet) {
		switch p.Kind {
		case record.PacketIn:
			t.Ingress++
		case record.PacketOut:
			t.Delivered++
			t.DeliveredSet.Add(record.DeliveryKey{
				Src: p.Src, Relay: p.Relay, Flow: p.Flow, Seq: p.Seq,
			})
		case record.PacketDrop:
			t.Dropped++
		}
	})
	return t
}

// Script renders the whole run: a frame every step plus the activity
// table — what the paper's replay window shows, in text.
func (r *Replayer) Script(step time.Duration, w, h int) string {
	if step <= 0 {
		step = time.Second
	}
	var b strings.Builder
	for t := r.from; t <= r.to; t = t.Add(step) {
		b.WriteString(r.FrameAt(t, w, h))
		b.WriteByte('\n')
	}
	b.WriteString("activity:\n")
	for _, ws := range r.Activity(step) {
		fmt.Fprintf(&b, "  [%v .. %v] in=%d out=%d drop=%d\n",
			ws.From, ws.To, ws.Ingress, ws.Delivered, ws.Dropped)
	}
	return b.String()
}
