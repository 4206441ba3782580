package geom

import "math"

// Grid is a uniform spatial hash over the emulation plane. The radio
// neighbor tables use it to restrict range queries to nearby cells
// instead of scanning every node, which keeps scene updates cheap when
// emulating large MANETs (the §4.2 efficiency claim at scale).
//
// Keys are opaque identifiers chosen by the caller: node IDs, or
// pointers to whatever the caller keeps per node, which a range query
// then hands straight back. Grid is not safe for concurrent use; callers
// synchronize.
type Grid[K comparable] struct {
	cell  float64
	cells map[cellKey][]gridItem[K] // unordered; a range query scans whole cells
	pos   map[K]Vec2
}

type cellKey struct{ cx, cy int32 }

type gridItem[K comparable] struct {
	key K
	p   Vec2
}

// NewGrid returns a Grid with the given cell size. The cell size should
// be on the order of the typical radio range; queries then touch O(1)
// cells. A non-positive cell size panics: it is a programming error.
func NewGrid[K comparable](cellSize float64) *Grid[K] {
	if cellSize <= 0 {
		panic("geom: grid cell size must be positive")
	}
	return &Grid[K]{
		cell:  cellSize,
		cells: make(map[cellKey][]gridItem[K]),
		pos:   make(map[K]Vec2),
	}
}

// Len returns the number of keys stored.
func (g *Grid[K]) Len() int { return len(g.pos) }

func (g *Grid[K]) keyFor(p Vec2) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / g.cell)),
		cy: int32(math.Floor(p.Y / g.cell)),
	}
}

// Put inserts or moves key to position p.
func (g *Grid[K]) Put(key K, p Vec2) {
	if old, ok := g.pos[key]; ok {
		ok1 := g.keyFor(old)
		ok2 := g.keyFor(p)
		if ok1 == ok2 {
			c := g.cells[ok1]
			c[indexOf(c, key)].p = p
			g.pos[key] = p
			return
		}
		g.removeFromCell(ok1, key)
	}
	ck := g.keyFor(p)
	g.cells[ck] = append(g.cells[ck], gridItem[K]{key, p})
	g.pos[key] = p
}

func indexOf[K comparable](c []gridItem[K], key K) int {
	for i := range c {
		if c[i].key == key {
			return i
		}
	}
	panic("geom: grid cell lost a key")
}

// Remove deletes key from the grid. Removing an absent key is a no-op.
func (g *Grid[K]) Remove(key K) {
	p, ok := g.pos[key]
	if !ok {
		return
	}
	g.removeFromCell(g.keyFor(p), key)
	delete(g.pos, key)
}

func (g *Grid[K]) removeFromCell(ck cellKey, key K) {
	c := g.cells[ck]
	if len(c) == 1 {
		delete(g.cells, ck)
		return
	}
	last := len(c) - 1
	c[indexOf(c, key)] = c[last]
	g.cells[ck] = c[:last]
}

// Pos returns the stored position for key.
func (g *Grid[K]) Pos(key K) (Vec2, bool) {
	p, ok := g.pos[key]
	return p, ok
}

// Within calls fn for every key whose position lies within radius r of
// center, excluding the key `exclude` (pass a key that is not stored to
// exclude nothing). Iteration order is unspecified.
func (g *Grid[K]) Within(center Vec2, r float64, exclude K, fn func(key K, p Vec2)) {
	if r < 0 {
		return
	}
	r2 := r * r
	lo := g.keyFor(Vec2{center.X - r, center.Y - r})
	hi := g.keyFor(Vec2{center.X + r, center.Y + r})
	// A radius much larger than the occupied area would walk millions
	// of empty cells; when the cell window exceeds the number of
	// occupied cells, scanning those directly is strictly cheaper. The
	// window's sides are taken in int64 (a side of an int32 range
	// overflows int32) and compared one at a time (their product can
	// overflow int64).
	occupied := int64(len(g.cells))
	w, h := int64(hi.cx)-int64(lo.cx)+1, int64(hi.cy)-int64(lo.cy)+1
	if w > occupied || h > occupied || w*h > occupied {
		for ck, cell := range g.cells {
			if ck.cx < lo.cx || ck.cx > hi.cx || ck.cy < lo.cy || ck.cy > hi.cy {
				continue
			}
			for _, it := range cell {
				if it.key != exclude && it.p.DistSq(center) <= r2 {
					fn(it.key, it.p)
				}
			}
		}
		return
	}
	for cx := int64(lo.cx); cx <= int64(hi.cx); cx++ {
		for cy := int64(lo.cy); cy <= int64(hi.cy); cy++ {
			for _, it := range g.cells[cellKey{int32(cx), int32(cy)}] {
				if it.key != exclude && it.p.DistSq(center) <= r2 {
					fn(it.key, it.p)
				}
			}
		}
	}
}

// KeysWithin returns the keys within radius r of center, excluding
// `exclude`. It is a convenience wrapper over Within.
func (g *Grid[K]) KeysWithin(center Vec2, r float64, exclude K) []K {
	var out []K
	g.Within(center, r, exclude, func(key K, _ Vec2) { out = append(out, key) })
	return out
}
