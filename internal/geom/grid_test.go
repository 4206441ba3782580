package geom

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestGridPutPosRemove(t *testing.T) {
	g := NewGrid[int64](50)
	g.Put(1, V(10, 10))
	g.Put(2, V(60, 60))
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	if p, ok := g.Pos(1); !ok || p != V(10, 10) {
		t.Errorf("Pos(1) = %v %v", p, ok)
	}
	// Move within the same cell.
	g.Put(1, V(12, 12))
	if p, _ := g.Pos(1); p != V(12, 12) {
		t.Errorf("Pos after same-cell move = %v", p)
	}
	// Move across cells.
	g.Put(1, V(200, 200))
	if p, _ := g.Pos(1); p != V(200, 200) {
		t.Errorf("Pos after cross-cell move = %v", p)
	}
	g.Remove(1)
	if _, ok := g.Pos(1); ok {
		t.Error("Pos(1) after Remove")
	}
	g.Remove(1) // idempotent
	if g.Len() != 1 {
		t.Errorf("Len after removes = %d", g.Len())
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid[int64](10)
	g.Put(1, V(-5, -5))
	g.Put(2, V(-15, -25))
	got := g.KeysWithin(V(-10, -10), 20, -1)
	if len(got) != 2 {
		t.Errorf("KeysWithin negative region: %v", got)
	}
}

func TestGridWithinExclude(t *testing.T) {
	g := NewGrid[int64](25)
	g.Put(1, V(0, 0))
	g.Put(2, V(10, 0))
	g.Put(3, V(100, 0))
	got := g.KeysWithin(V(0, 0), 20, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("KeysWithin exclude: %v", got)
	}
}

func TestGridZeroCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid[int64](0) did not panic")
		}
	}()
	NewGrid[int64](0)
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid[int64](10)
	g.Put(1, V(0, 0))
	if got := g.KeysWithin(V(0, 0), -1, -1); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

// TestGridHugeRadius: a radius whose cell window is wider than int32
// can count scans the occupied cells. Here the window's x side (2.4·10⁹
// cells) overflowed int32 and its y side, far out where both of its ends
// saturate, counted one cell: the window read negative, and the query
// walked 2.4·10⁹ cells — the hang a fuzzed replicated radio range found.
func TestGridHugeRadius(t *testing.T) {
	g := NewGrid[int64](200)
	g.Put(1, V(0, 1e15))
	g.Put(2, V(1e6, 1e15))
	done := make(chan []int64)
	go func() { done <- g.KeysWithin(V(0, 1e15), 2.4e11, -1) }()
	select {
	case got := <-done:
		if len(got) != 2 {
			t.Errorf("KeysWithin huge radius: %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("KeysWithin with a 2.4e11 radius did not return")
	}
}

// Property (randomized): grid range query matches brute force exactly.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := NewGrid[int64](30 + rng.Float64()*100)
		pts := make(map[int64]Vec2)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			key := int64(i)
			p := V(rng.Float64()*1000-500, rng.Float64()*1000-500)
			g.Put(key, p)
			pts[key] = p
		}
		// Random churn: move some, remove some.
		for i := 0; i < n/3; i++ {
			key := int64(rng.Intn(n))
			if rng.Intn(2) == 0 {
				g.Remove(key)
				delete(pts, key)
			} else {
				p := V(rng.Float64()*1000-500, rng.Float64()*1000-500)
				g.Put(key, p)
				pts[key] = p
			}
		}
		center := V(rng.Float64()*1000-500, rng.Float64()*1000-500)
		r := rng.Float64() * 300
		got := g.KeysWithin(center, r, -1)
		var want []int64
		for key, p := range pts {
			if p.DistSq(center) <= r*r {
				want = append(want, key)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d keys, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func BenchmarkGridWithin(b *testing.B) {
	g := NewGrid[int64](200)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		g.Put(int64(i), V(rng.Float64()*4000, rng.Float64()*4000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.Within(V(2000, 2000), 200, -1, func(int64, Vec2) { n++ })
	}
}
