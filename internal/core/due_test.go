package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestScheduledDueRule pins the one rule by which a delivery's due time
// enters a schedule, read back from the schedule itself: the paper's
// t_forward = t_receipt + delay + size/bandwidth per receiver; under
// SerializeChannels the end of the transmission's airtime + the
// receiver's delay, the airtime starting where the channel's previous
// one ended; and a due already past — a late stamp or a late trunk
// entry — fires at the instant the packet entered.
func TestScheduledDueRule(t *testing.T) {
	now := vclock.FromSeconds(100)
	model := linkmodel.Model{
		Loss: linkmodel.NoLoss{},
		// Airtime differs by distance, delay by receiver (its dice).
		Bandwidth: linkmodel.GaussianBandwidth{M: 8e6, Min: 1e6, R: 200},
		Delay:     linkmodel.UniformDelay{Min: time.Millisecond, Max: 9 * time.Millisecond},
	}
	receivers := map[radio.NodeID]float64{2: 50, 3: 150} // distance from sender 1
	packet := func(seq uint32, stamp vclock.Time) wire.Packet {
		return wire.Packet{Src: 1, Dst: radio.Broadcast, Channel: 1, Seq: seq, Stamp: stamp,
			Payload: make([]byte, 972)}
	}
	// decide re-derives receiver to's verdict on pkt from its dice.
	decide := func(pkt wire.Packet, to radio.NodeID) linkmodel.Decision {
		var d linkmodel.Dice
		d.Key(linkmodel.PacketKey(1, uint32(pkt.Src), pkt.Seq, int64(pkt.Stamp)), uint32(to))
		return model.Evaluate(receivers[to], pkt.Size(), rand.New(&d))
	}
	type delivery struct {
		seq uint32
		to  radio.NodeID
	}
	// Each case lists its packets into srv and returns the dues the rule
	// gives their deliveries.
	cases := []struct {
		name      string
		serialize bool
		run       func(srv *Server, sess *session) map[delivery]vclock.Time
	}{
		{"base model, on time", false, func(srv *Server, sess *session) map[delivery]vclock.Time {
			pkt := packet(1, now)
			srv.ingest(sess, pkt)
			want := map[delivery]vclock.Time{}
			for to := range receivers {
				d := decide(pkt, to)
				want[delivery{1, to}] = pkt.Stamp.Add(d.Delay + d.TxTime)
			}
			return want
		}},
		{"base model, late stamp", false, func(srv *Server, sess *session) map[delivery]vclock.Time {
			srv.ingest(sess, packet(1, now.Add(-time.Second)))
			return map[delivery]vclock.Time{{1, 2}: now, {1, 3}: now}
		}},
		{"SerializeChannels, back to back", true, func(srv *Server, sess *session) map[delivery]vclock.Time {
			want := map[delivery]vclock.Time{}
			end := now
			for seq := uint32(1); seq <= 2; seq++ {
				pkt := packet(seq, now)
				srv.ingest(sess, pkt)
				if decide(pkt, 2).Delay == decide(pkt, 3).Delay {
					t.Fatalf("seq %d: both receivers drew one delay; the case cannot tell them apart", seq)
				}
				// The second transmission starts where the first's airtime,
				// sized for its slowest receiver, ended.
				end = end.Add(max(decide(pkt, 2).TxTime, decide(pkt, 3).TxTime))
				for to := range receivers {
					want[delivery{seq, to}] = end.Add(decide(pkt, to).Delay)
				}
			}
			return want
		}},
		{"SerializeChannels, late stamp", true, func(srv *Server, sess *session) map[delivery]vclock.Time {
			srv.ingest(sess, packet(1, now.Add(-time.Second)))
			return map[delivery]vclock.Time{{1, 2}: now, {1, 3}: now}
		}},
		{"trunk entry, on time", false, func(srv *Server, _ *session) map[delivery]vclock.Time {
			due := now.Add(5 * time.Millisecond)
			tb := &wire.TrunkBatch{Entries: []wire.TrunkEntry{{Due: due, To: 2, Pkt: packet(1, now)}}}
			srv.cluster.ingestTrunkBatch(tb, &pushScratch{})
			return map[delivery]vclock.Time{{1, 2}: due}
		}},
		{"trunk entry, late", false, func(srv *Server, _ *session) map[delivery]vclock.Time {
			tb := &wire.TrunkBatch{Entries: []wire.TrunkEntry{{Due: now.Add(-5 * time.Millisecond), To: 2, Pkt: packet(1, now)}}}
			srv.cluster.ingestTrunkBatch(tb, &pushScratch{})
			return map[delivery]vclock.Time{{1, 2}: now}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := vclock.NewManual(now)
			sc := scene.New(radio.NewIndexed(200), clk, 1)
			sc.SetLinkModel(1, model)
			sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
			for to, dist := range receivers {
				sc.AddNode(to, geom.V(dist, 0), oneRadio(1, 200))
			}
			srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Seed: 1, Shards: 1,
				SerializeChannels: c.serialize, Peers: []PeerSpec{{Addr: "self"}}, ClusterID: "due-test"})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			want := c.run(srv, benchSession(1, srv))
			got := map[delivery]vclock.Time{}
			srv.shards[0].scanner.Drain(func(it sched.Item) { got[delivery{it.Pkt.Seq, it.To}] = it.Due })
			if len(got) != len(want) {
				t.Fatalf("scheduled %v, want %v", got, want)
			}
			for d, due := range want {
				if got[d] != due {
					t.Errorf("seq %d to %v due %v (%d ns), want %v (%d ns)", d.seq, d.to, got[d], got[d], due, due)
				}
			}
		})
	}
}

// linearNeighbor is the scan neighborOf replaced: every row entry whose
// ID is id.
func linearNeighbor(row []radio.Neighbor, id radio.NodeID) []radio.Neighbor {
	var out []radio.Neighbor
	for _, nb := range row {
		if nb.ID == id {
			out = append(out, nb)
		}
	}
	return out
}

// neighborOf against the linear scan on seeded ID-sorted rows: empty,
// one entry, gapped, and with the addressee below, inside, between and
// past the row's IDs.
func TestNeighborOfMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var row []radio.Neighbor
		for id := radio.NodeID(1 + rng.Intn(3)); len(row) < rng.Intn(40); id += radio.NodeID(1 + rng.Intn(4)) {
			row = append(row, radio.Neighbor{ID: id, Dist: rng.Float64() * 200})
		}
		for probe := 0; probe < 20; probe++ {
			id := radio.NodeID(rng.Intn(170))
			if len(row) > 0 && probe%2 == 0 {
				id = row[rng.Intn(len(row))].ID
			}
			got, want := neighborOf(row, id), linearNeighbor(row, id)
			if len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
				t.Fatalf("seed %d: neighborOf(%v) = %v, linear scan %v (row %v)", seed, id, got, want, row)
			}
		}
	}
}

// A unicast is heard by its addressee alone, found by binary search in
// the dispatch row: seeded unicasts to neighbours, to nodes out of range
// and to IDs nobody holds, under a lossy link, must list exactly the
// deliveries the linear scan over the same row gives — the same
// receiver, dice key, verdict and due — and count the same drops and
// no-routes.
func TestUnicastIngestMatchesLinearScan(t *testing.T) {
	now := vclock.FromSeconds(100)
	model := linkmodel.Model{
		Loss:      linkmodel.ConstantLoss{P: 0.3},
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e7},
		Delay:     linkmodel.UniformDelay{Min: time.Millisecond, Max: 9 * time.Millisecond},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := vclock.NewManual(now)
		sc := scene.New(radio.NewIndexed(200), clk, 1)
		sc.SetLinkModel(1, model)
		sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
		for id := radio.NodeID(2); id < 50; id++ { // about two in three in range
			sc.AddNode(id, geom.V(rng.Float64()*300, rng.Float64()*100), oneRadio(1, 200))
		}
		srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Seed: seed, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		row, _ := sc.Dispatch(1, 1)
		type delivery struct {
			seq uint32
			to  radio.NodeID
		}
		want := map[delivery]vclock.Time{}
		var drops, noRoute uint64
		sess := benchSession(1, srv)
		for seq := uint32(1); seq <= 400; seq++ {
			pkt := wire.Packet{Src: 1, Dst: radio.NodeID(rng.Intn(60)), Channel: 1, Seq: seq, Stamp: now,
				Payload: make([]byte, rng.Intn(200))}
			heard := linearNeighbor(row, pkt.Dst)
			if len(heard) == 0 {
				noRoute++
			}
			for _, nb := range heard {
				var d linkmodel.Dice
				d.Key(linkmodel.PacketKey(seed, uint32(pkt.Src), pkt.Seq, int64(pkt.Stamp)), uint32(nb.ID))
				dec := model.Evaluate(nb.Dist, pkt.Size(), rand.New(&d))
				if dec.Drop {
					drops++
					continue
				}
				want[delivery{seq, nb.ID}] = pkt.Stamp.Add(dec.Delay + dec.TxTime)
			}
			srv.ingest(sess, pkt)
		}
		got := map[delivery]vclock.Time{}
		srv.shards[0].scanner.Drain(func(it sched.Item) { got[delivery{it.Pkt.Seq, it.To}] = it.Due })
		st := srv.Stats()
		srv.Close()
		if st.Dropped != drops || st.NoRoute != noRoute || len(got) != len(want) {
			t.Fatalf("seed %d: dropped %d, no-route %d, scheduled %d; linear scan %d, %d, %d",
				seed, st.Dropped, st.NoRoute, len(got), drops, noRoute, len(want))
		}
		if drops == 0 || noRoute == 0 || len(want) == 0 {
			t.Fatalf("seed %d: %d drops, %d no-routes, %d deliveries: a case went untested", seed, drops, noRoute, len(want))
		}
		for d, due := range want {
			if got[d] != due {
				t.Errorf("seed %d: seq %d to %v due %v, linear scan %v", seed, d.seq, d.to, got[d], due)
			}
		}
	}
}
