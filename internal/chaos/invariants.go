package chaos

import (
	"bytes"
	"math"
	"reflect"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// finalChecks settles the whole-run invariants once the last quiesce
// has drained the pipeline: the record DBs must together contain exactly
// the deliveries the clients observed, each survive a Save/Load round
// trip and replay to its peer's counters, and the coordinator's must
// reconstruct the scene's final node positions — which every follower's
// scene must hold too.
func (r *Runner) finalChecks() {
	// Freeze mobility so the recorded position timeline and the live
	// scenes can be compared without a tick racing the comparison. The
	// ticker may be mid-tick when the pause lands; the brief sleep lets
	// it observe the flag. The followers then catch up on every move.
	r.sc.SetPaused(true)
	time.Sleep(2 * time.Millisecond)
	r.replicated("final")

	r.applySabotage()
	r.checkFIFO("final")

	ledger := record.NewMultiset()
	for _, cl := range r.clients {
		for _, k := range receivedOrder(cl) {
			ledger.Add(k)
		}
	}
	// Replaying the recordings must reproduce the live run's totals: a
	// packet is recorded in by the peer that ingested it, out by the one
	// that fired it.
	db := record.NewMultiset()
	var tot replay.Totals
	for i, p := range r.peers {
		if err := p.store.Sync(); err != nil {
			r.violationf("final: peer %d store sync: %v", i, err)
		}
		own := p.store.DeliveredMultiset()
		t := replay.New(p.store).Totals()
		if !t.DeliveredSet.Equal(own) {
			r.violationf("final: peer %d replay delivered-set != record DB: %v", i, t.DeliveredSet.Diff(own, 5))
		}
		tot.Ingress, tot.Delivered, tot.Dropped = tot.Ingress+t.Ingress, tot.Delivered+t.Delivered, tot.Dropped+t.Dropped
		for k, c := range own {
			db[k] += c
		}
		// The recording must survive serialization.
		var buf bytes.Buffer
		if err := p.store.Save(&buf); err != nil {
			r.violationf("final: peer %d save: %v", i, err)
		} else if reloaded, err := record.Load(&buf); err != nil {
			r.violationf("final: peer %d load: %v", i, err)
		} else if got := reloaded.DeliveredMultiset(); !got.Equal(own) {
			r.violationf("final: peer %d save/load changed the delivered multiset: %v", i, got.Diff(own, 5))
		}
	}
	if !ledger.Equal(db) {
		r.violationf("final: record: client ledger (%d deliveries) != record DB (%d): %v",
			ledger.Total(), db.Total(), ledger.Diff(db, 5))
	}
	st := r.stats()
	if tot.Ingress != int(st.Received) {
		r.violationf("final: replay: ingress %d != received %d", tot.Ingress, st.Received)
	}
	if tot.Delivered != int(st.Forwarded) {
		r.violationf("final: replay: delivered %d != forwarded %d", tot.Delivered, st.Forwarded)
	}
	if tot.Dropped != int(st.Dropped+st.NoRoute) {
		r.violationf("final: replay: dropped %d != model drops %d + no-route %d",
			tot.Dropped, st.Dropped, st.NoRoute)
	}

	r.checkPositions()
	r.checkReplicas()
}

// checkPositions folds the coordinator's recorded scene events and
// compares every node's final position against its live scene.
func (r *Runner) checkPositions() {
	pos := make(map[radio.NodeID]geom.Vec2)
	for _, e := range r.peers[0].store.Scenes(0, vclock.Time(math.MaxInt64)) {
		switch e.Op {
		case "add", "move":
			pos[e.Node] = geom.V(e.X, e.Y)
		case "remove":
			delete(pos, e.Node)
		}
	}
	for _, n := range r.sc.Snapshot() {
		p, ok := pos[n.ID]
		if !ok {
			r.violationf("final: replay: node n%d missing from recorded scene", n.ID)
			continue
		}
		if math.Abs(p.X-n.Pos.X) > 1e-6 || math.Abs(p.Y-n.Pos.Y) > 1e-6 {
			r.violationf("final: replay: n%d recorded at (%.3f,%.3f), scene has (%.3f,%.3f)",
				n.ID, p.X, p.Y, n.Pos.X, n.Pos.Y)
		}
	}
}

// checkReplicas holds every follower's scene to the coordinator's: the
// same nodes at the same positions with the same radios — the proof that
// the mutation stream arrived complete and in order. Walkers live on the
// coordinator only.
func (r *Runner) checkReplicas() {
	if len(r.peers) < 2 {
		return
	}
	if n := r.trunks().RepErrors; n != 0 {
		r.violationf("final: replica: %d replicated mutations failed to apply", n)
	}
	still := func(sc *scene.Scene) []scene.NodeSnapshot {
		snap := sc.Snapshot()
		for i := range snap {
			snap[i].Mobile = false
		}
		return snap
	}
	want := still(r.sc)
	for p, q := range r.peers[1:] {
		if got := still(q.sc); !reflect.DeepEqual(got, want) {
			r.violationf("final: replica: peer %d holds %v, coordinator %v", p+1, got, want)
		}
	}
}

// applySabotage corrupts the harness's own delivery ledger (never the
// emulator) so the self-test can prove the invariant checks detect
// violations deterministically.
func (r *Runner) applySabotage() {
	switch r.cfg.Sabotage {
	case SabotageNone:
		return
	case SabotageFlipSeq:
		if ep := r.firstNonEmptyEpoch(); ep != nil {
			// Flip the high bit: sends number in the low thousands, so the
			// corrupted seq can never collide with a real delivery and both
			// the multiset comparison and the FIFO oracle must miss it.
			ep.mu.Lock()
			ep.recv[0].Seq |= 1 << 31
			ep.mu.Unlock()
			return
		}
		r.fabricateDelivery()
	case SabotageSwapOrder:
		if r.swapAdjacentDeliveries() {
			return
		}
		r.fabricateDelivery()
	}
}
