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
