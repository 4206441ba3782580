package radio

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// IndexedTables is the paper's channel-ID-indexed neighbor-table scheme
// (§4.2, Figure 6): one independent table per channel. A scene change
// involving node A only touches the tables of channels in CS(A) — e.g.
// node a on channel 2 never perturbs channel 1's table unless it
// switches a radio there — which is exactly the update-efficiency claim
// benchmarked in E7.
//
// Edges are directional: B ∈ NT(A,k) ⇔ D(A,B) ≤ R(A,k). With uniform
// ranges the relation is symmetric (a property test checks this).
//
// Row ownership. Each NT(A,k) is one ID-sorted []Neighbor, and that
// slice is the only copy there is: Row hands it out as is, and the
// scene publishes it to lock-free readers. A row is therefore in one of
// two states:
//
//   - owned — allocated by the table since the last Flush and not yet
//     handed out by it. Only the table holds it, so mutations patch it
//     in place (binary-search insert, delete, or Dist update).
//   - sealed — reported by a Flush, at exactly its length. From that
//     moment it is immutable for ever: the next mutation that must
//     change it copies it first, at its new length, and the copy is
//     owned until the following Flush.
//
// Every row that changes between two Flushes is reported by the second
// exactly once, so a consumer that mirrors the rows pays for the rows a
// mutation changed and nothing else. Row may be called at any time, but
// what it returns is guaranteed immutable only for a sealed row; take
// rows from Flush to keep them.
type IndexedTables struct {
	nodes map[NodeID]*Node
	chans map[ChannelID]*channelTable
	cost  uint64
	// gridCell sizes each channel's spatial index; see NewIndexed.
	gridCell float64
	// touched lists the rows changed since the last Flush, in order: a
	// row enters it when it becomes owned and when its node leaves the
	// channel.
	touched []*member
	// oldRadios holds the replaced radio set during SetRadios.
	oldRadios []Radio
}

// channelTable is NT(·,k) for one channel k.
type channelTable struct {
	members map[NodeID]*member
	grid    *geom.Grid[*member]
	// maxRange is the largest R(·,k) among members, atMax how many of
	// them have it. Every edge A → B has D(A,B) ≤ R(A,k) ≤ maxRange, so
	// the rows that mention B all belong to members within maxRange of
	// B — the table needs no reverse index.
	maxRange float64
	atMax    int
}

// member is one node's presence on one channel k.
type member struct {
	node  *Node
	ch    ChannelID
	rng   float64    // R(node, k)
	row   []Neighbor // NT(node, k), sorted by ID
	owned bool       // on touched: the row is unsealed, see IndexedTables
	gone  bool       // the node has left the channel
}

// gridSlack widens grid queries a hair: the grid filters on squared
// distance, the tables decide on D ≤ R with D as stored in the row, and
// the two can round differently at the boundary. The grid only has to
// return a superset.
const gridSlack = 1 + 1e-9

// NewIndexed returns an empty IndexedTables. gridCell is the spatial
// index cell size; pass roughly the typical radio range (a non-positive
// value selects a reasonable default).
func NewIndexed(gridCell float64) *IndexedTables {
	if gridCell <= 0 {
		gridCell = 250
	}
	return &IndexedTables{
		nodes:    make(map[NodeID]*Node),
		chans:    make(map[ChannelID]*channelTable),
		gridCell: gridCell,
	}
}

func (t *IndexedTables) channel(ch ChannelID) *channelTable {
	ct := t.chans[ch]
	if ct == nil {
		ct = &channelTable{
			members: make(map[NodeID]*member),
			grid:    geom.NewGrid[*member](t.gridCell),
		}
		t.chans[ch] = ct
	}
	return ct
}

// AddNode implements NeighborTable. It costs O(neighbors) per channel.
func (t *IndexedTables) AddNode(n *Node) {
	if _, dup := t.nodes[n.ID]; dup {
		panic(fmt.Sprintf("radio: duplicate node %v", n.ID))
	}
	cp, _ := copyNode(n)
	t.nodes[cp.ID] = &cp
	for i, r := range cp.Radios {
		if rng, on := cp.rangeAt(i); on {
			t.joinChannel(&cp, r.Channel, rng)
		}
	}
}

// joinChannel inserts the node into channel ch's table and computes
// both edge directions against current members.
func (t *IndexedTables) joinChannel(n *Node, ch ChannelID, rng float64) {
	ct := t.channel(ch)
	m := &member{node: n, ch: ch, rng: rng, owned: true}
	ct.members[n.ID] = m
	ct.grid.Put(m, n.Pos)
	ct.rangeSet(0, rng)
	t.touched = append(t.touched, m)
	t.refresh(ct, m, n.Pos, ct.maxRange)
}

// leaveChannel removes the node and all edges touching it from ch.
func (t *IndexedTables) leaveChannel(ct *channelTable, id NodeID) {
	m := ct.members[id]
	t.cost += uint64(len(m.row))
	ct.grid.Within(m.node.Pos, ct.maxRange*gridSlack, m, func(a *member, _ geom.Vec2) {
		t.setEdge(a, id, 0, false)
	})
	delete(ct.members, id)
	ct.grid.Remove(m)
	m.row, m.gone = nil, true
	if !m.owned { // else it is on the list already
		m.owned = true
		t.touched = append(t.touched, m)
	}
	ct.rangeSet(m.rng, 0)
}

// rangeSet keeps maxRange after a member's range went from old to now
// (0 = not a member before, or after). Only when the last member at the
// maximum gives it up are the members rescanned.
func (ct *channelTable) rangeSet(old, now float64) {
	switch {
	case now > ct.maxRange:
		ct.maxRange, ct.atMax = now, 1
		return
	case now == ct.maxRange:
		ct.atMax++
	}
	if old != ct.maxRange {
		return
	}
	if ct.atMax--; ct.atMax > 0 {
		return
	}
	ct.maxRange = 0
	for _, m := range ct.members {
		switch {
		case m.rng > ct.maxRange:
			ct.maxRange, ct.atMax = m.rng, 1
		case m.rng == ct.maxRange:
			ct.atMax++
		}
	}
}

// edit makes m's row writable and grow (-1, 0 or +1) entries longer at
// i: without entry i, as it is, or with a zero entry i for the caller to
// fill. A sealed row is copied at its new size; an owned one is edited
// in place, and Flush clips the spare capacity that leaves.
func (t *IndexedTables) edit(m *member, i, grow int) {
	switch {
	case !m.owned:
		row := make([]Neighbor, len(m.row)+grow)
		copy(row, m.row[:i])
		copy(row[i+max(grow, 0):], m.row[i-min(grow, 0):])
		m.row, m.owned = row, true
		t.touched = append(t.touched, m)
	case grow < 0:
		m.row = slices.Delete(m.row, i, i+1)
	case grow > 0:
		m.row = slices.Insert(m.row, i, Neighbor{})
	}
}

// setEdge makes a's row say that a reaches id at distance d (in), or
// that it does not: one binary search and at most one entry written.
func (t *IndexedTables) setEdge(a *member, id NodeID, d float64, in bool) {
	// Spelled out: this search is a third of a mobility tick, and
	// slices.BinarySearchFunc with its comparison closure took 3× as long.
	i, end := 0, len(a.row)
	for i < end {
		if mid := int(uint(i+end) >> 1); a.row[mid].ID < id {
			i = mid + 1
		} else {
			end = mid
		}
	}
	found := i < len(a.row) && a.row[i].ID == id
	switch {
	case found && in:
		if a.row[i].Dist == d {
			return
		}
		t.edit(a, i, 0)
		a.row[i].Dist = d
	case found:
		t.edit(a, i, -1)
	case in:
		t.edit(a, i, 1)
		a.row[i] = Neighbor{ID: id, Dist: d}
	default:
		return
	}
	t.cost++
}

// refresh brings channel ch up to date with m's node after it joined,
// moved from old, or changed range: every edge between m and a member
// within reach of its position (or of old) is set to what D ≤ R says
// now. reach must cover every range the edges to fix were made with:
// the channel's maxRange, and m's previous range if that was larger.
func (t *IndexedTables) refresh(ct *channelTable, m *member, old geom.Vec2, reach float64) {
	n := m.node
	visit := func(b *member, p geom.Vec2) {
		d := n.Pos.Dist(p)
		t.setEdge(m, b.node.ID, d, d <= m.rng)
		t.setEdge(b, n.ID, d, d <= b.rng)
	}
	// One query about the midpoint covers the discs around both
	// positions after a short move; after a long jump two queries are
	// cheaper than the square between them. Setting an edge twice is
	// harmless.
	if jump := n.Pos.Dist(old); jump <= 2*reach {
		ct.grid.Within(n.Pos.Add(old).Scale(0.5), (reach+jump/2)*gridSlack, m, visit)
		return
	}
	ct.grid.Within(old, reach*gridSlack, m, visit)
	ct.grid.Within(n.Pos, reach*gridSlack, m, visit)
}

// RemoveNode implements NeighborTable.
func (t *IndexedTables) RemoveNode(id NodeID) {
	n := t.nodes[id]
	if n == nil {
		return
	}
	for i, r := range n.Radios {
		if _, on := n.rangeAt(i); on {
			t.leaveChannel(t.chans[r.Channel], id)
		}
	}
	delete(t.nodes, id)
}

// Move implements NeighborTable. Only the tables of channels in CS(id)
// are touched — the heart of the paper's scheme.
func (t *IndexedTables) Move(id NodeID, pos geom.Vec2) {
	n := t.nodes[id]
	if n == nil {
		return
	}
	old := n.Pos
	n.Pos = pos
	for i, r := range n.Radios {
		if _, on := n.rangeAt(i); !on {
			continue
		}
		ct := t.chans[r.Channel]
		m := ct.members[id]
		ct.grid.Put(m, pos)
		t.refresh(ct, m, old, ct.maxRange)
	}
}

// SetRadios implements NeighborTable. It diffs the channel sets so that
// unchanged channels are only touched when the range on them changed.
func (t *IndexedTables) SetRadios(id NodeID, radios []Radio) {
	n := t.nodes[id]
	if n == nil {
		return
	}
	t.oldRadios = append(t.oldRadios[:0], n.Radios...)
	was := Node{Radios: t.oldRadios}
	n.Radios = append(n.Radios[:0], radios...)
	for i, r := range was.Radios {
		if _, on := was.rangeAt(i); on && !n.HasChannel(r.Channel) {
			t.leaveChannel(t.chans[r.Channel], id)
		}
	}
	for i, r := range n.Radios {
		rng, on := n.rangeAt(i)
		if !on {
			continue
		}
		ch := r.Channel
		if !was.HasChannel(ch) {
			t.joinChannel(n, ch, rng)
			continue
		}
		// Still on ch. If the range changed, D and the others' R stand,
		// so only the node's own row can change.
		ct := t.chans[ch]
		m := ct.members[id]
		if old := m.rng; rng != old {
			m.rng = rng
			ct.rangeSet(old, rng)
			t.refresh(ct, m, n.Pos, max(old, rng))
		}
	}
}

// Flush calls fn for every row that changed since the previous Flush,
// once each and in the order they first changed, and seals the rows it
// reports: the slice passed to fn is never written again, and holds no
// spare capacity (a row that kept some is copied at its length first).
// member is false (and row nil) when the node has left the channel. See
// the type comment for the ownership rules. A table that is never
// flushed works, but remembers every row changed.
func (t *IndexedTables) Flush(fn func(ch ChannelID, id NodeID, row []Neighbor, member bool)) {
	for i, m := range t.touched {
		m.owned = false
		if cap(m.row) > len(m.row) { // edited in place
			m.row = append(make([]Neighbor, 0, len(m.row)), m.row...)
		}
		fn(m.ch, m.node.ID, m.row, !m.gone)
		t.touched[i] = nil
	}
	t.touched = t.touched[:0]
}

// Row returns NT(id, ch) without copying. The caller must not modify
// it, and must not keep it across a table mutation unless it came from
// Flush.
func (t *IndexedTables) Row(id NodeID, ch ChannelID) []Neighbor {
	if ct := t.chans[ch]; ct != nil {
		if m := ct.members[id]; m != nil {
			return m.row
		}
	}
	return nil
}

// Neighbors implements NeighborTable.
func (t *IndexedTables) Neighbors(id NodeID, ch ChannelID) []Neighbor {
	return slices.Clone(t.Row(id, ch))
}

// Peek returns the table's own record of a node, or nil — Node without
// the copy, for callers that only read it before the next mutation.
func (t *IndexedTables) Peek(id NodeID) *Node { return t.nodes[id] }

// Node implements NeighborTable.
func (t *IndexedTables) Node(id NodeID) (Node, bool) { return copyNode(t.nodes[id]) }

// NodeSet implements NeighborTable.
func (t *IndexedTables) NodeSet(ch ChannelID) []NodeID {
	ct := t.chans[ch]
	if ct == nil {
		return nil
	}
	out := make([]NodeID, 0, len(ct.members))
	for id := range ct.members {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Len implements NeighborTable.
func (t *IndexedTables) Len() int { return len(t.nodes) }

// UpdateCost implements NeighborTable.
func (t *IndexedTables) UpdateCost() uint64 { return t.cost }
