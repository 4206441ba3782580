package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
)

const (
	gridSpacing = 10.0
	radioRange  = 35.0
	channel     = radio.ChannelID(1)
	sizeSeqLen  = 4096 // payload-size sequence length per flow (power of two)
	opSeqLen    = 1024 // operator-op sequence length
)

// flowSpec is one sender and its receivers. A unicast sender addresses
// Dsts in rotation (packet n goes to Dsts[n%len]); a broadcaster reaches
// whoever the scene says is in range. Dsts[0], always the east
// neighbour, is the receiver that carries the flow's spans.
type flowSpec struct {
	Src   radio.NodeID
	Dsts  []radio.NodeID
	Sizes []int // payload size of the n-th packet is Sizes[n%len]
}

func (f *flowSpec) dst(seq uint32) radio.NodeID { return f.Dsts[seq%uint32(len(f.Dsts))] }

// opSpec is one operator action on the live scene.
type opSpec struct {
	Move  bool // MoveNode, else SetRange
	Node  radio.NodeID
	Pos   geom.Vec2
	Range float64
}

// inputs is everything the seed decides. The program under test sees
// only these values, never the seed's meaning: sender placement, the
// payload-size sequences, the walker set, the operator's op sequence,
// and the dice seeds handed to the scene and the server.
type inputs struct {
	Nodes      []scene.NodeSpec
	Flows      [numFlows]flowSpec
	Walkers    []radio.NodeID
	Ops        []opSpec
	SceneSeed  int64
	ServerSeed int64
	Region     geom.Rect
}

// inRange lists the grid nodes within radio range of (x, y): the east
// neighbour first if there is one, then by distance, then by id.
func inRange(side, x, y int) []radio.NodeID {
	type cand struct {
		id radio.NodeID
		d2 int
	}
	var cs []cand
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			nx, ny, d2 := x+dx, y+dy, dx*dx+dy*dy
			if d2 == 0 || float64(d2)*gridSpacing*gridSpacing > radioRange*radioRange ||
				nx < 0 || ny < 0 || nx >= side || ny >= side {
				continue
			}
			if dx == 1 && dy == 0 {
				d2 = 0
			}
			cs = append(cs, cand{nodeID(side, nx, ny), d2})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].d2 != cs[j].d2 {
			return cs[i].d2 < cs[j].d2
		}
		return cs[i].id < cs[j].id
	})
	out := make([]radio.NodeID, len(cs))
	for i, c := range cs {
		out[i] = c.id
	}
	return out
}

// nearest returns the n nodes closest to (x, y) that are in radio range
// and pass ok — the east neighbour first, which must itself pass — or
// nil if there are not n of them. The choice is spread evenly over the
// server's pipeline shards (core.ShardIndex): all of a flow's receivers
// on one scanner or split between two is a different load shape, and the
// seed must vary the inputs, not the shape.
func nearest(side, x, y, n int, ok func(radio.NodeID) bool) []radio.NodeID {
	shards := core.DefaultShards()
	quota, taken := (n+shards-1)/shards, make([]int, shards)
	var out []radio.NodeID
	for i, id := range inRange(side, x, y) {
		if !ok(id) {
			if i == 0 {
				return nil
			}
			continue
		}
		if sh := core.ShardIndex(id, shards); taken[sh] < quota && len(out) < n {
			taken[sh]++
			out = append(out, id)
		}
	}
	if len(out) < n || out[0] != nodeID(side, x+1, y) {
		return nil
	}
	return out
}

// imbalance is how unevenly a broadcast from (x, y) would load the
// server's pipeline shards on top of load, the deliveries per round the
// flows placed so far cause on each: busiest minus idlest.
func imbalance(load []int, side, x, y int) int {
	total := append([]int(nil), load...)
	for _, id := range inRange(side, x, y) {
		total[core.ShardIndex(id, len(total))]++
	}
	lo, hi := total[0], total[0]
	for _, n := range total {
		lo, hi = min(lo, n), max(hi, n)
	}
	return hi - lo
}

func nodeID(side, x, y int) radio.NodeID { return radio.NodeID(y*side + x + 1) }

func nodePos(side int, id radio.NodeID) geom.Vec2 {
	i := int(id) - 1
	return geom.V(float64(i%side)*gridSpacing, float64(i/side)*gridSpacing)
}

// generate derives a workload's inputs from the seed.
func generate(w workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(w.Name))))
	side := w.Side
	in := &inputs{
		SceneSeed:  rng.Int63(),
		ServerSeed: rng.Int63(),
		Region:     geom.R(0, 0, float64(side-1)*gridSpacing, float64(side-1)*gridSpacing),
	}
	in.Nodes = make([]scene.NodeSpec, side*side)
	for i := range in.Nodes {
		id := radio.NodeID(i + 1)
		in.Nodes[i] = scene.NodeSpec{ID: id, Pos: nodePos(side, id),
			Radios: []radio.Radio{{Channel: channel, Range: radioRange}}}
	}

	special := map[radio.NodeID]bool{}             // senders and receivers: nothing else may touch them
	shardLoad := make([]int, core.DefaultShards()) // deliveries per round of broadcasts, by server shard
	for f := range in.Flows {
		var src radio.NodeID
		var dsts []radio.NodeID
		for try := 0; len(dsts) == 0; try++ {
			if try > 10000 {
				return nil, fmt.Errorf("%s: no placement for flow %d", w.Name, f)
			}
			if w.Broadcast {
				// One broadcaster in each half of the grid, interior and more
				// than two radio ranges apart, so the two neighbourhoods are
				// disjoint and no session's send queue takes both windows.
				lo, hi := 4+f*side/2, side/2-4+f*(side/2-1)
				if hi <= lo {
					return nil, fmt.Errorf("%s: grid side %d too small for two disjoint neighbourhoods", w.Name, side)
				}
				// Of 32 seeded candidates take the one that leaves the
				// deliveries of all broadcasters most evenly spread over the
				// server's pipeline shards. Neighbourhoods hash to anything
				// from 15:21 to 18:18 across two shards, and two senders both
				// leaning the same way cost several percent of throughput:
				// again the seed must vary the inputs, not the shape.
				x, y, best := 0, 0, -1
				for c := 0; c < 32; c++ {
					cx, cy := lo+rng.Intn(hi-lo), 4+rng.Intn(side-8)
					if d := imbalance(shardLoad, side, cx, cy); best < 0 || d < best {
						x, y, best = cx, cy, d
					}
				}
				for _, id := range inRange(side, x, y) {
					shardLoad[core.ShardIndex(id, len(shardLoad))]++
				}
				src, dsts = nodeID(side, x, y), []radio.NodeID{nodeID(side, x+1, y)}
				break
			}
			// Unicast to the Fan nearest neighbours, east neighbour first.
			// Under federation every receiver lives on the other peer, so
			// the two flows cross the trunk in opposite directions.
			x, y := 2+rng.Intn(side-4), 2+rng.Intn(side-4)
			src = nodeID(side, x, y)
			if special[src] || (w.Trunk && core.PeerIndex(src, 2) != f) {
				continue
			}
			dsts = nearest(side, x, y, w.Fan, func(id radio.NodeID) bool {
				return !special[id] && (!w.Trunk || core.PeerIndex(id, 2) == 1-f)
			})
		}
		special[src] = true
		for _, d := range dsts {
			special[d] = true
		}
		sizes := make([]int, sizeSeqLen)
		for i := range sizes {
			sizes[i] = w.Sizes[rng.Intn(len(w.Sizes))]
		}
		in.Flows[f] = flowSpec{Src: src, Dsts: dsts, Sizes: sizes}
	}

	if w.Churn {
		// Every 8th node walks; the operator works on the rest. Neither
		// ever touches a sender or a token receiver, so every flow keeps
		// its designated path for the whole run.
		walker := map[radio.NodeID]bool{}
		for id := radio.NodeID(8); int(id) <= side*side; id += 8 {
			if !special[id] {
				in.Walkers = append(in.Walkers, id)
				walker[id] = true
			}
		}
		for len(in.Ops) < opSeqLen {
			id := radio.NodeID(1 + rng.Intn(side*side))
			if special[id] || walker[id] {
				continue
			}
			op := opSpec{Move: len(in.Ops)%2 == 0, Node: id}
			home := nodePos(side, id)
			op.Pos = geom.V(home.X+rng.Float64()*10-5, home.Y+rng.Float64()*10-5)
			op.Range = []float64{30, 35, 40}[rng.Intn(3)]
			in.Ops = append(in.Ops, op)
		}
	}
	return in, nil
}
