package radio

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/vclock"
)

func TestNodeChannels(t *testing.T) {
	n := &Node{ID: 1, Radios: []Radio{
		{Channel: 3, Range: 100},
		{Channel: 1, Range: 50},
		{Channel: 3, Range: 200}, // duplicate channel, larger range
	}}
	if got := n.Channels(); !reflect.DeepEqual(got, []ChannelID{1, 3}) {
		t.Errorf("Channels = %v", got)
	}
	if r, ok := n.RangeOn(3); !ok || r != 200 {
		t.Errorf("RangeOn(3) = %v,%v", r, ok)
	}
	if _, ok := n.RangeOn(2); ok {
		t.Error("RangeOn(2) should be absent")
	}
	if !n.HasChannel(1) || n.HasChannel(7) {
		t.Error("HasChannel")
	}
}

func TestIDStrings(t *testing.T) {
	if NodeID(3).String() != "VMN3" {
		t.Error("NodeID string")
	}
	if Broadcast.String() != "VMN*" {
		t.Error("Broadcast string")
	}
	if ChannelID(2).String() != "ch2" {
		t.Error("ChannelID string")
	}
}

// twoNode builds A at origin and B at distance d, both with one radio
// on ch with the given ranges.
func twoNode(tab NeighborTable, d, rangeA, rangeB float64, ch ChannelID) {
	tab.AddNode(&Node{ID: 1, Pos: geom.V(0, 0), Radios: []Radio{{Channel: ch, Range: rangeA}}})
	tab.AddNode(&Node{ID: 2, Pos: geom.V(d, 0), Radios: []Radio{{Channel: ch, Range: rangeB}}})
}

func implementations() map[string]func() NeighborTable {
	return map[string]func() NeighborTable{
		"indexed": func() NeighborTable { return NewIndexed(100) },
		"unified": func() NeighborTable { return NewUnified() },
	}
}

func TestBasicNeighborhood(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			twoNode(tab, 80, 100, 100, 1)
			n1 := tab.Neighbors(1, 1)
			if len(n1) != 1 || n1[0].ID != 2 || n1[0].Dist != 80 {
				t.Errorf("NT(1,1) = %v", n1)
			}
			n2 := tab.Neighbors(2, 1)
			if len(n2) != 1 || n2[0].ID != 1 {
				t.Errorf("NT(2,1) = %v", n2)
			}
			if got := tab.Neighbors(1, 2); len(got) != 0 {
				t.Errorf("NT(1,2) = %v, want empty", got)
			}
			if got := tab.NodeSet(1); !reflect.DeepEqual(got, []NodeID{1, 2}) {
				t.Errorf("NS(1) = %v", got)
			}
			if tab.Len() != 2 {
				t.Errorf("Len = %d", tab.Len())
			}
		})
	}
}

// Directional ranges: B ∈ NT(A,k) ⇔ D ≤ R(A,k), so with R(A)=100 and
// R(B)=50 at distance 80 A hears... A can reach B but not vice versa.
func TestAsymmetricRanges(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			twoNode(tab, 80, 100, 50, 1)
			if got := tab.Neighbors(1, 1); len(got) != 1 {
				t.Errorf("A should reach B: %v", got)
			}
			if got := tab.Neighbors(2, 1); len(got) != 0 {
				t.Errorf("B should not reach A: %v", got)
			}
		})
	}
}

// No shared channel ⇒ no neighborhood regardless of distance. This is
// the Table 2 Step 3 behaviour: putting VMN1 and VMN2 on different
// channels cuts the link.
func TestChannelMismatch(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			tab.AddNode(&Node{ID: 1, Pos: geom.V(0, 0), Radios: []Radio{{Channel: 1, Range: 1000}}})
			tab.AddNode(&Node{ID: 2, Pos: geom.V(1, 0), Radios: []Radio{{Channel: 2, Range: 1000}}})
			if got := tab.Neighbors(1, 1); len(got) != 0 {
				t.Errorf("cross-channel neighbors: %v", got)
			}
			// Retune node 2 to channel 1: link appears.
			tab.SetRadios(2, []Radio{{Channel: 1, Range: 1000}})
			if got := tab.Neighbors(1, 1); len(got) != 1 {
				t.Errorf("after retune: %v", got)
			}
		})
	}
}

func TestMoveUpdatesNeighborhood(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			twoNode(tab, 80, 100, 100, 1)
			tab.Move(2, geom.V(150, 0)) // out of range
			if got := tab.Neighbors(1, 1); len(got) != 0 {
				t.Errorf("after move out: %v", got)
			}
			if got := tab.Neighbors(2, 1); len(got) != 0 {
				t.Errorf("reverse after move out: %v", got)
			}
			tab.Move(2, geom.V(30, 40)) // back in, distance 50
			n := tab.Neighbors(1, 1)
			if len(n) != 1 || n[0].Dist != 50 {
				t.Errorf("after move in: %v", n)
			}
		})
	}
}

// Shrinking a node's range drops only its own outgoing edges — the
// Table 2 Step 2 behaviour (VMN1 shrinks to exclude VMN3).
func TestRangeShrinkIsDirectional(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			twoNode(tab, 80, 100, 100, 1)
			tab.SetRadios(1, []Radio{{Channel: 1, Range: 60}})
			if got := tab.Neighbors(1, 1); len(got) != 0 {
				t.Errorf("A still reaches B after shrink: %v", got)
			}
			if got := tab.Neighbors(2, 1); len(got) != 1 {
				t.Errorf("B lost A after A's shrink: %v", got)
			}
			// Grow back.
			tab.SetRadios(1, []Radio{{Channel: 1, Range: 100}})
			if got := tab.Neighbors(1, 1); len(got) != 1 {
				t.Errorf("A did not regain B after grow: %v", got)
			}
		})
	}
}

func TestRemoveNode(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			twoNode(tab, 50, 100, 100, 1)
			tab.RemoveNode(2)
			if got := tab.Neighbors(1, 1); len(got) != 0 {
				t.Errorf("stale neighbor after remove: %v", got)
			}
			if _, ok := tab.Node(2); ok {
				t.Error("removed node still present")
			}
			if tab.Len() != 1 {
				t.Errorf("Len = %d", tab.Len())
			}
			tab.RemoveNode(2) // idempotent
		})
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			tab.AddNode(&Node{ID: 1})
			defer func() {
				if recover() == nil {
					t.Error("duplicate AddNode did not panic")
				}
			}()
			tab.AddNode(&Node{ID: 1})
		})
	}
}

func TestOpsOnUnknownNode(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			tab := mk()
			tab.Move(9, geom.V(1, 1)) // no-op
			tab.SetRadios(9, nil)     // no-op
			tab.RemoveNode(9)         // no-op
			if tab.Len() != 0 {
				t.Error("phantom node appeared")
			}
			if got := tab.Neighbors(9, 1); len(got) != 0 {
				t.Error("unknown node has neighbors")
			}
		})
	}
}

// The Figure 6 scenario: node a has radios on channel 2 only; nodes in
// channel 1's table must not be affected by a's movement until a
// switches a radio to channel 1.
func TestFigure6ChannelIsolation(t *testing.T) {
	tab := NewIndexed(100)
	// Channel 1 community.
	tab.AddNode(&Node{ID: 10, Pos: geom.V(0, 0), Radios: []Radio{{Channel: 1, Range: 100}}})
	tab.AddNode(&Node{ID: 11, Pos: geom.V(50, 0), Radios: []Radio{{Channel: 1, Range: 100}}})
	// Node a on channel 2.
	tab.AddNode(&Node{ID: 20, Pos: geom.V(25, 10), Radios: []Radio{{Channel: 2, Range: 100}}})
	costBefore := tab.UpdateCost()
	// Churn node a heavily: channel 1's table must not change, and the
	// per-move cost must stay flat (no channel-1 entries touched).
	for i := 0; i < 100; i++ {
		tab.Move(20, geom.V(float64(i), 10))
	}
	if got := tab.Neighbors(10, 1); len(got) != 1 || got[0].ID != 11 {
		t.Errorf("channel 1 table perturbed: %v", got)
	}
	costA := tab.UpdateCost() - costBefore
	if costA != 0 {
		t.Errorf("moving an isolated channel-2 node cost %d entry writes, want 0", costA)
	}
	// Now a switches a radio to channel 1 → it joins that table.
	tab.SetRadios(20, []Radio{{Channel: 1, Range: 100}})
	if got := tab.Neighbors(20, 1); len(got) != 2 {
		t.Errorf("after switch, NT(a,1) = %v", got)
	}
}

// Property: with uniform ranges the neighbor relation is symmetric.
func TestSymmetryUniformRanges(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tab := mk()
			const n = 40
			for i := 0; i < n; i++ {
				tab.AddNode(&Node{
					ID:     NodeID(i),
					Pos:    geom.V(rng.Float64()*500, rng.Float64()*500),
					Radios: []Radio{{Channel: ChannelID(1 + i%3), Range: 150}},
				})
			}
			for i := 0; i < 50; i++ {
				tab.Move(NodeID(rng.Intn(n)), geom.V(rng.Float64()*500, rng.Float64()*500))
			}
			for i := 0; i < n; i++ {
				for _, ch := range []ChannelID{1, 2, 3} {
					for _, nb := range tab.Neighbors(NodeID(i), ch) {
						back := tab.Neighbors(nb.ID, ch)
						found := false
						for _, b := range back {
							if b.ID == NodeID(i) {
								found = true
							}
						}
						if !found {
							t.Fatalf("asymmetry: %v ∈ NT(%d,%v) but not vice versa", nb.ID, i, ch)
						}
					}
				}
			}
		})
	}
}

// randomOps drives both implementations with the same operation stream
// and checks every query agrees — the strongest equivalence test. For
// the indexed table that covers its row representation too: each row is
// ID-sorted and bit-identical to the unified answer (Dist included);
// Flush, called at random intervals, reports exactly the rows that
// changed (a mirror built from its reports alone stays equal to the
// table); and a row, once reported, is never written again.
func TestImplementationsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	idx := NewIndexed(120)
	uni := NewUnified()
	const maxNodes = 30
	live := make(map[NodeID]bool)
	randRadios := func() []Radio {
		k := 1 + rng.Intn(3)
		rs := make([]Radio, k)
		for i := range rs {
			rs[i] = Radio{Channel: ChannelID(1 + rng.Intn(4)), Range: 50 + rng.Float64()*200}
		}
		return rs
	}
	randPos := func() geom.Vec2 { return geom.V(rng.Float64()*600, rng.Float64()*600) }

	type rowKey struct {
		ch ChannelID
		id NodeID
	}
	type sealed struct{ row, was []Neighbor }
	mirror := map[rowKey][]Neighbor{}
	var handedOut []sealed
	flush := func() {
		seen := map[rowKey]bool{}
		idx.Flush(func(ch ChannelID, id NodeID, row []Neighbor, member bool) {
			k := rowKey{ch, id}
			if !member {
				delete(mirror, k)
				return
			}
			if seen[k] {
				t.Fatalf("Flush reported the row of %v on %v twice", id, ch)
			}
			seen[k] = true
			mirror[k] = row
			handedOut = append(handedOut, sealed{row, slices.Clone(row)})
		})
	}

	for step := 0; step < 600; step++ {
		op := rng.Intn(4)
		id := NodeID(rng.Intn(maxNodes))
		switch {
		case op == 0 && !live[id]:
			n := Node{ID: id, Pos: randPos(), Radios: randRadios()}
			n2 := n
			n2.Radios = append([]Radio(nil), n.Radios...)
			idx.AddNode(&n)
			uni.AddNode(&n2)
			live[id] = true
		case op == 1 && live[id]:
			idx.RemoveNode(id)
			uni.RemoveNode(id)
			delete(live, id)
		case op == 2 && live[id]:
			p := randPos()
			idx.Move(id, p)
			uni.Move(id, p)
		case op == 3 && live[id]:
			rs := randRadios()
			idx.SetRadios(id, append([]Radio(nil), rs...))
			uni.SetRadios(id, append([]Radio(nil), rs...))
		}
		if rng.Intn(3) == 0 {
			flush()
		}
		// Compare all queries every 20 steps (full compare is O(n²·ch)).
		if step%20 != 19 {
			continue
		}
		flush()
		if idx.Len() != uni.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, idx.Len(), uni.Len())
		}
		rows := 0
		for id := range live {
			for ch := ChannelID(1); ch <= 4; ch++ {
				a := idx.Row(id, ch)
				b := uni.Neighbors(id, ch)
				if !slices.Equal(a, b) {
					t.Fatalf("step %d: NT(%v,%v): indexed %v vs unified %v", step, id, ch, a, b)
				}
				if !slices.IsSortedFunc(a, func(x, y Neighbor) int { return cmp.Compare(x.ID, y.ID) }) {
					t.Fatalf("step %d: NT(%v,%v) unsorted: %v", step, id, ch, a)
				}
				if cp := idx.Neighbors(id, ch); !slices.Equal(cp, a) || (len(a) > 0 && &cp[0] == &a[0]) {
					t.Fatalf("step %d: Neighbors(%v,%v) = %v is not a copy of %v", step, id, ch, cp, a)
				}
				n, _ := idx.Node(id)
				if m, mirrored := mirror[rowKey{ch, id}]; mirrored != n.HasChannel(ch) || !slices.Equal(m, a) {
					t.Fatalf("step %d: rows reported by Flush give NT(%v,%v) = %v (member %v), table has %v",
						step, id, ch, m, mirrored, a)
				}
				if n.HasChannel(ch) {
					rows++
				}
				sa := idx.NodeSet(ch)
				sb := uni.NodeSet(ch)
				if len(sa) != len(sb) || (len(sa) > 0 && !reflect.DeepEqual(sa, sb)) {
					t.Fatalf("step %d: NS(%v): %v vs %v", step, ch, sa, sb)
				}
			}
		}
		if len(mirror) != rows {
			t.Fatalf("step %d: Flush has reported %d live rows, the table has %d", step, len(mirror), rows)
		}
	}
	for _, h := range handedOut {
		if !slices.Equal(h.row, h.was) {
			t.Fatalf("a row changed after Flush reported it: was %v, now %v", h.was, h.row)
		}
	}
}

// The §4.2 efficiency claim: under churn restricted to one channel the
// indexed scheme's update cost is far lower than the unified scheme's.
func TestUpdateCostClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := NewIndexed(120)
	uni := NewUnified()
	const n = 60
	for i := 0; i < n; i++ {
		node := Node{
			ID:     NodeID(i),
			Pos:    geom.V(rng.Float64()*800, rng.Float64()*800),
			Radios: []Radio{{Channel: ChannelID(1 + i%6), Range: 150}},
		}
		n2 := node
		n2.Radios = append([]Radio(nil), node.Radios...)
		idx.AddNode(&node)
		uni.AddNode(&n2)
	}
	c0i, c0u := idx.UpdateCost(), uni.UpdateCost()
	// Churn only channel-1 nodes (IDs ≡ 0 mod 6).
	for step := 0; step < 200; step++ {
		id := NodeID((rng.Intn(10)) * 6)
		p := geom.V(rng.Float64()*800, rng.Float64()*800)
		idx.Move(id, p)
		uni.Move(id, p)
	}
	di := idx.UpdateCost() - c0i
	du := uni.UpdateCost() - c0u
	if di == 0 || du == 0 {
		t.Fatalf("costs did not move: indexed %d unified %d", di, du)
	}
	if du < 4*di {
		t.Errorf("expected unified cost ≫ indexed cost, got indexed=%d unified=%d", di, du)
	}
}

func TestNodeCopyIsolation(t *testing.T) {
	tab := NewIndexed(100)
	orig := &Node{ID: 1, Pos: geom.V(1, 2), Radios: []Radio{{Channel: 1, Range: 100}}}
	tab.AddNode(orig)
	// Mutating the caller's struct after AddNode must not affect the table.
	orig.Pos = geom.V(999, 999)
	orig.Radios[0].Range = 0
	got, _ := tab.Node(1)
	if got.Pos != geom.V(1, 2) || got.Radios[0].Range != 100 {
		t.Errorf("table aliased caller memory: %+v", got)
	}
	// Mutating the returned copy must not affect the table either.
	got.Radios[0].Channel = 42
	got2, _ := tab.Node(1)
	if got2.Radios[0].Channel != 1 {
		t.Error("Node() returned aliased radios")
	}
}

// Every row Flush seals is exactly its length: a row built or edited in
// place and left with spare capacity is clipped, and a sealed row that
// changes is copied at its new size. Each step below must report rows,
// or it checked nothing.
func TestSealedRowsHaveNoSpareCapacity(t *testing.T) {
	idx := NewIndexed(150)
	check := func(step string) {
		t.Helper()
		rows := 0
		idx.Flush(func(ch ChannelID, id NodeID, row []Neighbor, member bool) {
			if !member {
				return
			}
			rows++
			if cap(row) != len(row) {
				t.Errorf("%s: the row of %v on %v is sealed with %d entries and capacity %d", step, id, ch, len(row), cap(row))
			}
		})
		if rows == 0 {
			t.Fatalf("%s: Flush reported no row", step)
		}
	}
	one := func(ch ChannelID, rng float64) []Radio { return []Radio{{Channel: ch, Range: rng}} }
	const n = 400 // a 20×20 grid 40 apart: a row holds up to ≈ 45 entries
	for i := 0; i < n; i++ {
		idx.AddNode(&Node{ID: NodeID(i + 1), Pos: geom.V(float64(i%20)*40, float64(i/20)*40), Radios: one(1, 150)})
	}
	check("AddNodes")
	idx.AddNode(&Node{ID: n + 1, Pos: geom.V(390, 390), Radios: one(1, 150)})
	check("AddNode")
	idx.Move(n+1, geom.V(395, 391))
	check("Move (a nudge)")
	idx.Move(n+1, geom.V(100, 700))
	check("Move (a jump)")
	idx.SetRadios(n+1, one(1, 300))
	check("SetRadios (a range change)")
	idx.SetRadios(n+1, one(2, 300))
	idx.SetRadios(210, one(2, 150))
	check("SetRadios (a channel switch)")
	idx.RemoveNode(190)
	check("RemoveNode")
	// A mobility tick: every walker advanced, then one Flush.
	rng := rand.New(rand.NewSource(1))
	model := mobility.Waypoint{MinSpeed: 5, MaxSpeed: 20, Pause: mobility.Constant(0), Region: geom.R(0, 0, 760, 760)}
	walkers := map[NodeID]mobility.Walker{}
	for id := NodeID(1); id <= n; id++ {
		if nd := idx.Peek(id); nd != nil {
			walkers[id] = model.NewWalker(nd.Pos, rng)
			walkers[id].Pos(0)
		}
	}
	for id, w := range walkers {
		idx.Move(id, w.Pos(vclock.FromSeconds(2)))
	}
	check("a mobility tick")
}
