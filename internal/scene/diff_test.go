package scene

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/vclock"
)

// diffIDs is the node-ID universe of the differential test: a dense run,
// so that one channel's bucket directory grows and shrinks, and IDs
// spread over the whole uint32 range up to the largest a node may have.
func diffIDs() []radio.NodeID {
	ids := []radio.NodeID{1<<32 - 2, 1<<32 - 3, 1 << 31, 1<<31 + 1, 1 << 24, 1<<16 + 5, 65535, 40503, 0}
	for id := radio.NodeID(1); len(ids) < 56; id++ {
		ids = append(ids, id)
	}
	return ids
}

// capture is a row as a reader saw it: the shared slice and a private
// copy of what it held at that moment.
type capture struct {
	row, was []radio.Neighbor
}

// TestViewMatchesUnifiedOracle is the differential property test of the
// row-granular publish. A seeded random sequence of every scene mutation
// runs against the scene and against a radio.UnifiedTable fed the same
// operations; after every one, each Dispatch row must equal the oracle's
// element for element and bit for bit (Dist included), and the model
// must be the one last configured. Meanwhile reader goroutines keep the
// row slices they were handed; when the sequence ends every one of them
// must still hold exactly what it held when it was read — rows are
// immutable across epochs. Run under -race: a write to a published row
// is then a reported race as well.
func TestViewMatchesUnifiedOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		diffRun(t, seed, 320)
	}
}

func diffRun(t *testing.T, seed int64, steps int) {
	const channels = 3
	rng := rand.New(rand.NewSource(seed))
	ids := diffIDs()
	region := geom.R(0, 0, 600, 600)
	s := New(radio.NewIndexed(120), vclock.NewManual(0), seed)
	oracle := radio.NewUnified()
	live := map[radio.NodeID]bool{}
	models := map[radio.ChannelID]linkmodel.Model{}
	defModel := linkmodel.Default()

	// Walkers move nodes inside Tick; the oracle learns where from the
	// event stream. Every other operation is fed to it directly.
	s.Subscribe(func(e Event) {
		if e.Kind == NodeMoved && e.Detail == "mobility" {
			oracle.Move(e.Node, e.Pos)
		}
	})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	captured := make([][]capture, 2)
	for r := range captured {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rr := rand.New(rand.NewSource(seed*100 + int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				row, _ := s.Dispatch(ids[rr.Intn(len(ids))], radio.ChannelID(1+rr.Intn(channels)))
				for i := 1; i < len(row); i++ {
					if row[i-1].ID >= row[i].ID {
						t.Errorf("seed %d: reader saw an unsorted row %v", seed, row)
						return
					}
				}
				// Sample, don't spin: the suite's timing tests share the CPUs.
				time.Sleep(20 * time.Microsecond)
				if len(row) == 0 {
					continue
				}
				c := capture{row, slices.Clone(row)}
				if len(captured[r]) < 4096 {
					captured[r] = append(captured[r], c)
				} else {
					captured[r][rr.Intn(len(captured[r]))] = c
				}
			}
		}(r)
	}

	// A quarter of the positions sit on a 50 × 120 lattice and half of
	// the ranges are round numbers, so that pairs land exactly on the
	// D = R boundary (50² + 120² = 130²) and ranges tie for the maximum.
	randPos := func() geom.Vec2 {
		if rng.Intn(4) == 0 {
			return geom.V(float64(rng.Intn(13))*50, float64(rng.Intn(6))*120)
		}
		return geom.V(rng.Float64()*600, rng.Float64()*600)
	}
	randRange := func() float64 {
		if rng.Intn(2) == 0 {
			return []float64{0, 50, 120, 130, 130, 260}[rng.Intn(6)] // 0: switched off
		}
		return 40 + rng.Float64()*220
	}
	randRadios := func() []radio.Radio {
		rs := make([]radio.Radio, 1+rng.Intn(3)) // may tune two radios to one channel
		for i := range rs {
			rs[i] = radio.Radio{Channel: radio.ChannelID(1 + rng.Intn(channels)), Range: randRange()}
		}
		return rs
	}
	randModel := func() linkmodel.Model {
		m := linkmodel.Default()
		m.Delay = linkmodel.ConstantDelay{D: time.Duration(1+rng.Intn(50)) * time.Millisecond}
		return m
	}
	pick := func(want bool) (radio.NodeID, bool) {
		for try := 0; try < 8; try++ {
			if id := ids[rng.Intn(len(ids))]; live[id] == want {
				return id, true
			}
		}
		return 0, false
	}
	add := func(id radio.NodeID, pos geom.Vec2, rs []radio.Radio) {
		oracle.AddNode(&radio.Node{ID: id, Pos: pos, Radios: slices.Clone(rs)})
		live[id] = true
	}

	now := vclock.Time(0)
	for step := 0; step < steps; step++ {
		op := rng.Intn(12)
		if step/80%2 == 1 && op < 3 {
			op = 3 // every other stretch the scene drains instead of filling
		}
		switch op {
		case 0, 1:
			if id, ok := pick(false); ok {
				pos, rs := randPos(), randRadios()
				if err := s.AddNode(id, pos, rs); err != nil {
					t.Fatal(err)
				}
				add(id, pos, rs)
			}
		case 2:
			// A batch; now and then it runs into an ID that exists, which
			// must leave the nodes before it added and published.
			var batch []NodeSpec
			for n := 2 + rng.Intn(6); n > 0; n-- {
				if id, ok := pick(false); ok && !slices.ContainsFunc(batch, func(b NodeSpec) bool { return b.ID == id }) {
					batch = append(batch, NodeSpec{ID: id, Pos: randPos(), Radios: randRadios()})
				}
			}
			if id, ok := pick(true); ok && rng.Intn(4) == 0 {
				batch = append(batch, NodeSpec{ID: id, Pos: randPos(), Radios: randRadios()})
			}
			err := s.AddNodes(batch)
			for _, b := range batch {
				if live[b.ID] {
					if err == nil {
						t.Fatalf("seed %d step %d: AddNodes accepted the existing %v", seed, step, b.ID)
					}
					break
				}
				add(b.ID, b.Pos, b.Radios)
			}
		case 3:
			if id, ok := pick(true); ok {
				s.RemoveNode(id)
				oracle.RemoveNode(id)
				delete(live, id)
			}
		case 4, 5:
			if id, ok := pick(true); ok {
				pos := randPos()
				if rng.Intn(3) == 0 { // a short drag rather than a jump
					n, _ := s.Node(id)
					pos = region.Clamp(n.Pos.Add(geom.V(rng.Float64()*20-10, rng.Float64()*20-10)))
				}
				s.MoveNode(id, pos)
				oracle.Move(id, pos)
			}
		case 6:
			if id, ok := pick(true); ok {
				rs := randRadios()
				s.SetRadios(id, rs)
				oracle.SetRadios(id, slices.Clone(rs))
			}
		case 7:
			if id, ok := pick(true); ok {
				ch, r := radio.ChannelID(1+rng.Intn(channels)), randRange()
				s.SetRange(id, ch, r)
				n, _ := oracle.Node(id)
				for i := range n.Radios {
					if n.Radios[i].Channel == ch {
						n.Radios[i].Range = r
					}
				}
				oracle.SetRadios(id, n.Radios)
			}
		case 8:
			ch := radio.ChannelID(1 + rng.Intn(channels))
			models[ch] = randModel()
			if err := s.SetLinkModel(ch, models[ch]); err != nil {
				t.Fatal(err)
			}
		case 9:
			if rng.Intn(4) == 0 {
				defModel = randModel()
				if err := s.SetDefaultLinkModel(defModel); err != nil {
					t.Fatal(err)
				}
			}
		case 10:
			if id, ok := pick(true); ok {
				s.SetMobility(id, mobility.RandomWalk(1, 30, 1, region))
			}
		case 11:
			now += vclock.FromSeconds(0.5)
			s.Tick(now)
		}

		for _, id := range ids {
			if want, ok := oracle.Node(id); ok != s.HasNode(id) {
				t.Fatalf("seed %d step %d: %v exists: oracle %v, scene %v", seed, step, id, ok, !ok)
			} else if got, _ := s.Node(id); ok && got.Pos != want.Pos {
				t.Fatalf("seed %d step %d: %v at %v, oracle has it at %v", seed, step, id, got.Pos, want.Pos)
			}
			for ch := radio.ChannelID(1); ch <= channels; ch++ {
				row, m := s.Dispatch(id, ch)
				want := oracle.Neighbors(id, ch)
				if !sameRow(row, want) {
					t.Fatalf("seed %d step %d: Dispatch(%v,%v) = %v, oracle %v", seed, step, id, ch, row, want)
				}
				if locked := s.Neighbors(id, ch); !sameRow(locked, want) {
					t.Fatalf("seed %d step %d: Neighbors(%v,%v) = %v, oracle %v", seed, step, id, ch, locked, want)
				}
				wantM, explicit := models[ch]
				if !explicit {
					wantM = defModel
				}
				if !reflect.DeepEqual(m, wantM) {
					t.Fatalf("seed %d step %d: Dispatch(%v,%v) model %+v, want %+v", seed, step, id, ch, m, wantM)
				}
			}
		}
	}

	close(stop)
	readers.Wait()
	total := 0
	for _, cs := range captured {
		for _, c := range cs {
			total++
			if !sameRow(c.row, c.was) {
				t.Fatalf("seed %d: a published row changed under its reader: held %v, now %v", seed, c.was, c.row)
			}
		}
	}
	if total == 0 {
		t.Errorf("seed %d: the readers captured no rows", seed)
	}
}

// sameRow reports whether two rows hold the same neighbors in the same
// order with bit-identical distances. Empty and nil are the same row.
func sameRow(a, b []radio.Neighbor) bool {
	return slices.EqualFunc(a, b, func(x, y radio.Neighbor) bool {
		return x.ID == y.ID && math.Float64bits(x.Dist) == math.Float64bits(y.Dist)
	})
}
