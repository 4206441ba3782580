// Package radio models multi-radio MANET nodes and the neighbor tables
// the PoEm server keeps per channel (paper §4.2, Figure 6).
//
// In a multi-radio environment each node carries several radios, each
// tuned to a channel with its own range. Neighborhood depends on both
// radio range and channel assignment; the paper's model:
//
//	NS(n)    node set indexed by channel n
//	CS(A)    channel set of node A
//	NT(A,n)  neighbor table of A via channel n
//	R(A,n)   radio range of A on channel n
//	D(A,B)   distance between A and B
//
//	for channel k: k ∈ CS(A), k ∈ CS(B), A,B ∈ NS(k):
//	    B ∈ NT(A,k)  ⇔  D(A,B) ≤ R(A,k)
//
// The package provides two neighbor-table organizations:
//
//   - IndexedTables — one table per channel ID, the paper's scheme. A
//     change on channel k only touches channel k's table.
//   - UnifiedTable  — a single table whose entries carry channel marks,
//     the baseline the paper argues against; every update walks all
//     entries. Kept for the §4.2 ablation benchmark.
//
// Both satisfy the NeighborTable interface so the server and the bench
// harness can swap them.
package radio

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// NodeID identifies a virtual MANET node (VMN).
type NodeID uint32

// Broadcast is the destination meaning "all neighbors on the channel".
const Broadcast NodeID = math.MaxUint32

// String implements fmt.Stringer.
func (id NodeID) String() string {
	if id == Broadcast {
		return "VMN*"
	}
	return fmt.Sprintf("VMN%d", uint32(id))
}

// ChannelID identifies a radio channel.
type ChannelID uint16

// String implements fmt.Stringer.
func (c ChannelID) String() string { return fmt.Sprintf("ch%d", uint16(c)) }

// Radio is one radio interface of a node: a channel assignment and a
// transmission range on that channel (the paper's R(A,n)).
type Radio struct {
	Channel ChannelID
	Range   float64
}

// Node is the server-side state of a VMN relevant to neighborhood:
// position and radio set.
type Node struct {
	ID     NodeID
	Pos    geom.Vec2
	Radios []Radio
}

// Channels returns the node's channel set CS(A), deduplicated and
// sorted.
func (n *Node) Channels() []ChannelID {
	out := make([]ChannelID, 0, len(n.Radios))
	for _, r := range n.Radios {
		if i, dup := slices.BinarySearch(out, r.Channel); !dup {
			out = slices.Insert(out, i, r.Channel)
		}
	}
	return out
}

// rangeAt visits CS(A) without building it: for exactly one i per
// channel the node is on it returns R(A, Radios[i].Channel) and true.
// A channel whose radios all have non-positive range is not in CS(A)
// (see RangeOn).
func (n *Node) rangeAt(i int) (float64, bool) {
	ch := n.Radios[i].Channel
	for _, r := range n.Radios[:i] {
		if r.Channel == ch {
			return 0, false
		}
	}
	return n.RangeOn(ch)
}

// RangeOn returns R(A,n): the node's transmission range on channel ch.
// If several radios share the channel the largest range wins. ok is
// false when the node has no radio on ch.
func (n *Node) RangeOn(ch ChannelID) (r float64, ok bool) {
	for _, rad := range n.Radios {
		if rad.Channel == ch && rad.Range > r {
			r, ok = rad.Range, true
		}
	}
	return r, ok
}

// HasChannel reports k ∈ CS(A).
func (n *Node) HasChannel(ch ChannelID) bool {
	_, ok := n.RangeOn(ch)
	return ok
}

// Neighbor is one entry of NT(A,k): a reachable node and the current
// distance to it (cached for the link model).
type Neighbor struct {
	ID   NodeID
	Dist float64
}

// NeighborTable abstracts the server's neighborhood store so the paper
// scheme and the unified baseline are interchangeable. Implementations
// are not safe for concurrent use; the scene serializes access.
type NeighborTable interface {
	// AddNode inserts a node. Adding an existing ID panics: IDs are
	// allocated by the scene and duplicates indicate a bug.
	AddNode(n *Node)
	// RemoveNode deletes a node and all entries referencing it.
	RemoveNode(id NodeID)
	// Move updates a node's position and every affected table.
	Move(id NodeID, pos geom.Vec2)
	// SetRadios replaces a node's radio set (channel switches, range
	// changes) and updates affected tables.
	SetRadios(id NodeID, radios []Radio)
	// Neighbors returns NT(id, ch): every node the given node can reach
	// on ch right now. The returned slice is owned by the caller.
	Neighbors(id NodeID, ch ChannelID) []Neighbor
	// Node returns a copy of the stored node state.
	Node(id NodeID) (Node, bool)
	// NodeSet returns NS(ch): IDs of nodes with a radio on ch, sorted.
	NodeSet(ch ChannelID) []NodeID
	// Len returns the number of nodes.
	Len() int
	// UpdateCost returns a monotone counter of entry writes performed,
	// the metric for the §4.2 update-efficiency comparison.
	UpdateCost() uint64
}

// copyNode returns a copy of n that shares no storage with it, or false
// for a nil n.
func copyNode(n *Node) (Node, bool) {
	if n == nil {
		return Node{}, false
	}
	cp := *n
	cp.Radios = append([]Radio(nil), n.Radios...)
	return cp, true
}

// reaches reports whether a can transmit to b on ch, and the distance.
func reaches(a, b *Node, ch ChannelID) (float64, bool) {
	ra, ok := a.RangeOn(ch)
	if !ok || !b.HasChannel(ch) {
		return 0, false
	}
	d := a.Pos.Dist(b.Pos)
	return d, d <= ra
}
