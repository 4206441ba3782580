package chaos

import (
	"bytes"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/vclock"
)

// finalChecks settles the whole-run invariants once the last quiesce
// has drained the pipeline: the record DB must contain exactly the
// deliveries the clients observed, survive a Save/Load round trip,
// replay to the live counters' totals, and reconstruct the scene's
// final node positions.
func (r *Runner) finalChecks() {
	// Freeze mobility so the recorded position timeline and the live
	// scene can be compared without a tick racing the comparison. The
	// ticker may be mid-tick when the pause lands; the brief sleep lets
	// it observe the flag.
	r.sc.SetPaused(true)
	time.Sleep(2 * time.Millisecond)

	r.applySabotage()
	r.checkFIFO("final")

	st := r.srv.Stats()
	ledger := record.NewMultiset()
	for _, cl := range r.clients {
		for _, k := range receivedOrder(cl) {
			ledger.Add(k)
		}
	}
	if err := r.store.Sync(); err != nil {
		r.violationf("final: store sync: %v", err)
	}
	db := r.store.DeliveredMultiset()
	if !ledger.Equal(db) {
		r.violationf("final: record: client ledger (%d deliveries) != record DB (%d): %v",
			ledger.Total(), db.Total(), ledger.Diff(db, 5))
	}

	// Replaying the recording must reproduce the live run's totals.
	tot := replay.New(r.store).Totals()
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
	if !tot.DeliveredSet.Equal(db) {
		r.violationf("final: replay delivered-set != record DB: %v", tot.DeliveredSet.Diff(db, 5))
	}

	// The recording must survive serialization.
	var buf bytes.Buffer
	if err := r.store.Save(&buf); err != nil {
		r.violationf("final: save: %v", err)
	} else if reloaded, err := record.Load(&buf); err != nil {
		r.violationf("final: load: %v", err)
	} else if got := reloaded.DeliveredMultiset(); !got.Equal(db) {
		r.violationf("final: save/load changed the delivered multiset: %v", got.Diff(db, 5))
	}

	r.checkPositions()
}

// checkPositions folds the recorded scene events and compares every
// node's final position against the live scene.
func (r *Runner) checkPositions() {
	pos := make(map[radio.NodeID]geom.Vec2)
	for _, e := range r.store.Scenes(0, vclock.Time(math.MaxInt64)) {
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
