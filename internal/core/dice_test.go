package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

const diceSeed = 5

var diceModel = linkmodel.Model{
	Loss:      linkmodel.ConstantLoss{P: 0.3},
	Bandwidth: linkmodel.ConstantBandwidth{Bps: 1e9},
	Delay:     linkmodel.ConstantDelay{},
}

// diceRig is a recording server on a parked manual clock (nothing
// fires) running diceModel on channel 1: sender VMN 1 at the origin,
// receivers 2 and 3 in range, VMN 4 far out of range. The sender's
// client reads its own manual clock, so a test can push its stamps
// ahead of the server's.
type diceRig struct {
	srv    *Server
	scene  *scene.Scene
	store  *record.Store
	local  *vclock.Manual
	sender *Client
	sent   uint64
}

func newDiceRig(t *testing.T, shards int) *diceRig {
	t.Helper()
	clk := vclock.NewManual(vclock.FromSeconds(10))
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	st := record.NewStore()
	srv, err := NewServer(ServerConfig{
		Clock: clk, Scene: sc, Store: st, Seed: diceSeed, Shards: shards,
		TickStep: time.Hour, // keep mobility ticks off the manual clock
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := transport.NewInprocListener()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	t.Cleanup(func() { lis.Close(); srv.Close(); <-done })
	if err := sc.SetLinkModel(1, diceModel); err != nil {
		t.Fatal(err)
	}
	sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	sc.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sc.AddNode(3, geom.V(0, 80), oneRadio(1, 200))
	sc.AddNode(4, geom.V(5000, 0), oneRadio(1, 200))
	local := vclock.NewManual(clk.Now())
	c, err := Dial(ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: local, SyncRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &diceRig{srv: srv, scene: sc, store: st, local: local, sender: c}
}

// broadcast sends broadcasts with sequence numbers from..to and waits
// until the server has ingested them.
func (r *diceRig) broadcast(t *testing.T, from, to uint32) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := r.sender.Send(wire.Packet{Dst: radio.Broadcast, Channel: 1, Seq: seq, Payload: []byte("die")}); err != nil {
			t.Fatal(err)
		}
		r.sent++
	}
	for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Received < r.sent; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d", r.srv.Stats().Received, r.sent)
		}
	}
}

// drops is the sender's recorded link-model drops as (seq, receiver).
func (r *diceRig) drops() map[[2]uint32]bool {
	set := map[[2]uint32]bool{}
	r.store.ForEachPacket(func(p record.Packet) {
		if p.Kind == record.PacketDrop && p.Src == 1 {
			set[[2]uint32{p.Seq, uint32(p.Relay)}] = true
		}
	})
	return set
}

// A loss verdict is a function of (seed, packet, receiver) alone: which
// of VMN 1's packets VMN 2 and VMN 3 lose does not change when another
// node wanders into range, when a new neighbour joins mid-stream, or
// with the shard count.
func TestDropSetIgnoresUnrelatedSceneChanges(t *testing.T) {
	const half = 150
	scenarios := []struct {
		name   string
		shards int
		mid    func(sc *scene.Scene)
	}{
		{"baseline/shards=1", 1, nil},
		{"baseline/shards=4", 4, nil},
		{"move/shards=1", 1, func(sc *scene.Scene) { sc.MoveNode(4, geom.V(30, 30)) }},
		{"join/shards=4", 4, func(sc *scene.Scene) { sc.AddNode(5, geom.V(-40, 0), oneRadio(1, 200)) }},
	}
	var want map[[2]uint32]bool
	for _, sc := range scenarios {
		r := newDiceRig(t, sc.shards)
		r.broadcast(t, 1, half)
		if sc.mid != nil {
			sc.mid(r.scene)
		}
		r.broadcast(t, half+1, 2*half)
		all := r.drops()
		got, extra := map[[2]uint32]bool{}, 0
		for k := range all {
			if k[1] == 2 || k[1] == 3 {
				got[k] = true
			} else {
				extra++
			}
		}
		if sc.mid != nil && extra == 0 {
			t.Fatalf("%s: the extra neighbour drew no verdicts; the scene change did not take", sc.name)
		}
		if want == nil {
			want = got
			// 600 verdicts at p = 0.3: 180 ± 11.2; 5σ either way.
			if n := len(want); n < 124 || n > 236 {
				t.Fatalf("%s: %d drops of %d verdicts at p=0.3", sc.name, n, 4*half)
			}
			continue
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: seq %d to VMN %d kept, dropped in the baseline", sc.name, k[0], k[1])
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%s: seq %d to VMN %d dropped, kept in the baseline", sc.name, k[0], k[1])
			}
		}
	}
}

// Every PacketDrop of a recorded lossy run is re-derived offline from
// that record alone — the clamped stamp included — and no packet the
// dice would drop is missing from the drops.
func TestRecordedDropsRederive(t *testing.T) {
	r := newDiceRig(t, 1)
	r.broadcast(t, 1, 200)
	// The sender's clock runs an hour ahead: the server clamps the
	// stamps, and the record carries the clamped value.
	r.local.Set(r.local.Now().Add(time.Hour))
	r.broadcast(t, 201, 400)
	if r.srv.Stats().StampClamped == 0 {
		t.Fatal("no stamp was clamped")
	}
	var log bytes.Buffer
	if err := r.store.Save(&log); err != nil {
		t.Fatal(err)
	}
	st, err := record.Load(&log)
	if err != nil {
		t.Fatal(err)
	}
	var d linkmodel.Dice
	rng := rand.New(&d)
	derive := func(p record.Packet, receiver radio.NodeID) bool {
		d.Key(linkmodel.PacketKey(diceSeed, uint32(p.Src), p.Seq, int64(p.Stamp)), uint32(receiver))
		return diceModel.Evaluate(0, int(p.Size), rng).Drop
	}
	recorded, derived := 0, 0
	st.ForEachPacket(func(p record.Packet) {
		switch p.Kind {
		case record.PacketDrop:
			recorded++
			if !derive(p, p.Relay) {
				t.Errorf("recorded drop of seq %d to VMN %d does not re-derive", p.Seq, p.Relay)
			}
		case record.PacketIn:
			for _, to := range []radio.NodeID{2, 3} {
				if derive(p, to) {
					derived++
				}
			}
		}
	})
	if recorded == 0 || recorded != derived {
		t.Fatalf("%d drops recorded, %d re-derived from the PacketIn records", recorded, derived)
	}
}
