package scene

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// The benches run the scene the repository benchmark runs (bench/): a
// side×side grid on one channel, 10 m apart with a 35 m range, so an
// interior node has 36 neighbours.
const (
	benchSpacing = 10.0
	benchRange   = 35.0
)

var benchSides = []int{48, 128} // 2 304 and 16 384 nodes

func gridPos(side int, id radio.NodeID) geom.Vec2 {
	i := int(id) - 1
	return geom.V(float64(i%side)*benchSpacing, float64(i/side)*benchSpacing)
}

// gridScene builds the side×side scene, IDs 1..side², in one AddNodes.
func gridScene(tb testing.TB, side int) *Scene {
	s := New(radio.NewIndexed(benchRange), vclock.NewManual(0), 1)
	nodes := make([]NodeSpec, side*side)
	for i := range nodes {
		id := radio.NodeID(i + 1)
		nodes[i] = NodeSpec{ID: id, Pos: gridPos(side, id), Radios: oneRadio(1, benchRange)}
	}
	if err := s.AddNodes(nodes); err != nil {
		tb.Fatal(err)
	}
	return s
}

// interiorID picks the i-th of a spread of nodes away from the border.
func interiorID(side, i int) radio.NodeID {
	span := side - 8
	return radio.NodeID((4+(i*7)%span)*side + 4 + (i*13)%span + 1)
}

// BenchmarkSceneTick: one mobility tick with every 8th node walking, as
// on the churn workload. Each op advances emulated time by the ticker's
// 100 ms, so every walker moves every op.
func BenchmarkSceneTick(b *testing.B) {
	for _, side := range benchSides {
		b.Run(fmt.Sprintf("nodes=%d", side*side), func(b *testing.B) {
			s := gridScene(b, side)
			region := geom.R(0, 0, float64(side-1)*benchSpacing, float64(side-1)*benchSpacing)
			for id := radio.NodeID(8); int(id) <= side*side; id += 8 {
				s.SetMobility(id, mobility.RandomWalk(1, 5, 1, region))
			}
			now := vclock.Time(0)
			step := vclock.FromSeconds(0.1)
			s.Tick(now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += step
				s.Tick(now)
			}
		})
	}
}

// BenchmarkSceneMoveNode: one operator drag of an interior node by 1 m
// on the otherwise idle scene.
func BenchmarkSceneMoveNode(b *testing.B) {
	for _, side := range benchSides {
		b.Run(fmt.Sprintf("nodes=%d", side*side), func(b *testing.B) {
			s := gridScene(b, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := interiorID(side, i)
				p := gridPos(side, id)
				p.X += 1 + float64(i%7)/4 // never where an earlier op left it
				s.MoveNode(id, p)
			}
		})
	}
}

// BenchmarkSceneSetRange: one operator range change of an interior node
// on the otherwise idle scene.
func BenchmarkSceneSetRange(b *testing.B) {
	for _, side := range benchSides {
		b.Run(fmt.Sprintf("nodes=%d", side*side), func(b *testing.B) {
			s := gridScene(b, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SetRange(interiorID(side, i%64), 1, benchRange+float64(1+(i/64)%2))
			}
		})
	}
}

var benchSink int

// BenchmarkSceneDispatch: the lock-free read path on the bench scenes,
// from the two senders of the repository benchmark's workloads (hot: the
// bucket and the rows stay in cache) and from every node in turn in a
// scrambled order (spread: each lookup walks directory, bucket, IDs and
// rows cold).
func BenchmarkSceneDispatch(b *testing.B) {
	for _, side := range benchSides {
		s := gridScene(b, side)
		n := uint32(side * side)
		b.Run(fmt.Sprintf("hot/nodes=%d", n), func(b *testing.B) {
			ids := [2]radio.NodeID{interiorID(side, 1), interiorID(side, 2)}
			for i := 0; i < b.N; i++ {
				row, _ := s.Dispatch(ids[i&1], 1)
				benchSink += len(row)
			}
		})
		b.Run(fmt.Sprintf("spread/nodes=%d", n), func(b *testing.B) {
			x := uint32(12345)
			for i := 0; i < b.N; i++ {
				x = x*1664525 + 1013904223
				row, _ := s.Dispatch(radio.NodeID(x%n+1), 1)
				benchSink += len(row)
			}
		})
	}
}
