package radio

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// UnifiedTable is the baseline scheme the paper contrasts with in §4.2:
// "one unique neighbor table with multiple channel-id marked units".
// All (src, dst, channel) entries live in a single store, so every
// scene change must sweep the entire table to find the affected units,
// and row rebuilds scan every node rather than a channel's member set.
// Query results are identical to IndexedTables; only the update cost
// differs — which is exactly what BenchmarkNeighborTableIndexedVsUnified
// (E7) measures via UpdateCost.
type UnifiedTable struct {
	nodes   map[NodeID]*Node
	entries map[unifiedKey]float64 // (src,dst,ch) → distance
	cost    uint64
}

type unifiedKey struct {
	src, dst NodeID
	ch       ChannelID
}

// NewUnified returns an empty UnifiedTable.
func NewUnified() *UnifiedTable {
	return &UnifiedTable{
		nodes:   make(map[NodeID]*Node),
		entries: make(map[unifiedKey]float64),
	}
}

// AddNode implements NeighborTable.
func (t *UnifiedTable) AddNode(n *Node) {
	if _, dup := t.nodes[n.ID]; dup {
		panic(fmt.Sprintf("radio: duplicate node %v", n.ID))
	}
	cp, _ := copyNode(n)
	t.nodes[cp.ID] = &cp
	t.rebuildFor(cp.ID)
}

// rebuildFor recomputes every entry involving id, in both directions
// and on every channel — the unified scheme cannot narrow the work to
// one channel, so it sweeps the whole table and the whole node set.
func (t *UnifiedTable) rebuildFor(id NodeID) {
	// Sweep 1: the full table, dropping stale units that mention id.
	for k := range t.entries {
		t.cost++ // every unit is examined: the channel marks must be read
		if k.src == id || k.dst == id {
			delete(t.entries, k)
			t.cost++
		}
	}
	n := t.nodes[id]
	if n == nil {
		return
	}
	// Sweep 2: the full node set, re-deriving edges with id on every
	// shared channel.
	for _, other := range t.nodes {
		if other.ID == id {
			continue
		}
		t.cost++ // examined a node
		for _, ch := range n.Channels() {
			if d, ok := reaches(n, other, ch); ok {
				t.entries[unifiedKey{id, other.ID, ch}] = d
				t.cost++
			}
			if d, ok := reaches(other, n, ch); ok {
				t.entries[unifiedKey{other.ID, id, ch}] = d
				t.cost++
			}
		}
	}
}

// RemoveNode implements NeighborTable.
func (t *UnifiedTable) RemoveNode(id NodeID) {
	if _, ok := t.nodes[id]; ok {
		delete(t.nodes, id)
		t.rebuildFor(id) // drops the node's entries and adds none
	}
}

// Move implements NeighborTable.
func (t *UnifiedTable) Move(id NodeID, pos geom.Vec2) {
	n := t.nodes[id]
	if n == nil {
		return
	}
	n.Pos = pos
	t.rebuildFor(id)
}

// SetRadios implements NeighborTable.
func (t *UnifiedTable) SetRadios(id NodeID, radios []Radio) {
	n := t.nodes[id]
	if n == nil {
		return
	}
	n.Radios = append(n.Radios[:0], radios...)
	t.rebuildFor(id)
}

// Neighbors implements NeighborTable.
func (t *UnifiedTable) Neighbors(id NodeID, ch ChannelID) []Neighbor {
	var out []Neighbor
	for k, d := range t.entries {
		if k.src == id && k.ch == ch {
			out = append(out, Neighbor{ID: k.dst, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Node implements NeighborTable.
func (t *UnifiedTable) Node(id NodeID) (Node, bool) { return copyNode(t.nodes[id]) }

// NodeSet implements NeighborTable.
func (t *UnifiedTable) NodeSet(ch ChannelID) []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.HasChannel(ch) {
			out = append(out, n.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len implements NeighborTable.
func (t *UnifiedTable) Len() int { return len(t.nodes) }

// UpdateCost implements NeighborTable.
func (t *UnifiedTable) UpdateCost() uint64 { return t.cost }
