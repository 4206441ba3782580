package chaos

// Clock-stall scenario: the adversarial input the real-time fidelity
// monitor (internal/obs/fidelity) exists to catch. A vclock.StallClock
// freezes the server's emulation clock while traffic keeps arriving,
// then releases it — emulated time leaps forward by the whole stall, every
// delivery scheduled during the freeze fires hopelessly late in one
// pile, and the monitor must (a) count the misses, (b) escalate the
// health state machine, and (c) capture a flight-recorder dump of the
// breach. This is the seeded, reproducible stand-in for the host-side
// pathologies (GC pauses, CPU starvation, scheduler stalls) that make a
// portable real-time emulator silently stop being real-time.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs/fidelity"
	"repro/internal/vclock"
)

// The shape both stall scenarios share. stallPackets broadcasts pile up
// behind a stallHold wall-clock freeze of a clock running stallScale×
// wall time, so the pile is late by stallScale×stallHold of emulated
// time. A storm is only late if its due times — sender stamp plus
// stallLinkDelay — land after the frozen instant. The fidelity monitor
// judges stallWindow-delivery windows, small so the pile closes several.
const (
	stallPackets   = 24
	stallHold      = 40 * time.Millisecond
	stallScale     = 50
	stallLinkDelay = 2 * time.Millisecond
	stallWindow    = 32
)

// syncStormSender resyncs c until its emulation clock trails clk by
// less than half the link delay, and reports whether it got there. The
// scenarios sync in one round, and on a busy host one in-proc round
// trip can come out asymmetric enough to put the sender tens of
// emulated milliseconds behind: its storm would then be due before the
// frozen instant, fire at once, and leave the monitor nothing to count.
func syncStormSender(c *core.Client, clk vclock.Clock) bool {
	for try := 0; try < 64; try++ {
		if c.Now() >= clk.Now().Add(-stallLinkDelay/2) {
			return true
		}
		c.Resync() // a failed round is retried like a skewed one
	}
	return false
}

// StallConfig parameterizes one clock-stall scenario. The zero value
// plus a seed is a sensible run.
type StallConfig struct {
	// Seed feeds the scene and names the run in failure reports.
	Seed int64
	// Shards is the server's pipeline shard count (default 1).
	Shards int
}

// The clock-stall scenario's own shape: stallClients broadcasters, so a
// stalled broadcast fans out to stallClients-1 deliveries, judged
// against a tolerance tight enough that the whole pile misses.
const (
	stallClients   = 8
	stallTolerance = 5 * time.Millisecond
)

// StallReport is the outcome of one clock-stall run.
type StallReport struct {
	Outcome
	Health   string // server-wide state after the stall drained
	Breaches uint64
	Misses   uint64 // deadline misses summed across shards
	Dump     *fidelity.Dump
}

// Failure renders a failing run with its reproduction seed.
func (r StallReport) Failure() string { return r.failure("clock-stall", "TestClockStall") }

// RunStall executes one clock-stall scenario: warm traffic on a running
// clock (healthy), a freeze with stallPackets broadcasts piling into the
// schedule, then the leap — and verifies the fidelity monitor counted
// the misses, escalated the health state, and dumped the flight
// recorder. Traffic conservation holds throughout: the stall delays
// deliveries, it never loses them.
func RunStall(cfg StallConfig) (rep StallReport) {
	rep = StallReport{Outcome: Outcome{Seed: cfg.Seed}}
	clk := vclock.NewStallClock(vclock.NewSystem(stallScale))
	w, err := newWorld(cfg.Seed, clk, 0, 64, core.ServerConfig{
		Shards: max(cfg.Shards, 1), RTTolerance: stallTolerance, RTWindow: stallWindow,
		// Mobility is irrelevant here; keep the ticker off the clock.
		TickStep: 10 * time.Second,
	})
	if err != nil {
		rep.Violations = []string{fmt.Sprintf("setup: %v", err)}
		return rep
	}
	defer func() { rep.Outcome = w.close() }()
	if err := w.tightCluster(stallClients, stallLinkDelay); err != nil {
		w.violationf("setup: %v", err)
		return rep
	}
	srv, sender := w.peers[0].srv, w.clients[0].current().c
	fid := srv.Fidelity()

	// Phase 1 — warm traffic on a running clock. Deliveries fire on
	// schedule; the monitor must still read healthy.
	const warm = 2
	for k := 0; k < warm; k++ {
		if err := sender.Broadcast(1, 1, []byte("clock-stall-payload")); err != nil {
			w.violationf("warmup broadcast: %v", err)
			return rep
		}
	}
	w.settle("warmup")
	if st := fid.State(); st != fidelity.Healthy {
		w.violationf("warmup: health %v before any stall, want healthy", st)
	}

	// Phase 2 — freeze the clock, pile up the storm, leap. Everything
	// queued behind the freeze fires as one late pile.
	if !w.stallStorm(clk, sender, 2) {
		return rep
	}
	w.settle("post-stall")

	// Verdict: the stall lost nothing, misses were counted, health
	// escalated, and the breach dumped the flight recorder.
	st := srv.Stats()
	if st.QueueDrops != 0 || st.Abandoned != 0 {
		w.violationf("conservation: the stall lost deliveries: %+v", st)
	}
	if want := uint64(warm+stallPackets) * (stallClients - 1); st.Forwarded != want {
		w.violationf("conservation: forwarded %d of %d deliveries", st.Forwarded, want)
	}
	for _, snap := range fid.Snapshots() {
		rep.Misses += snap.Misses
	}
	rep.Health = fid.State().String()
	rep.Breaches = fid.Breaches()
	rep.Dump = fid.LastDump()
	if rep.Misses == 0 {
		w.violationf("monitor counted no deadline misses across a %v stall at scale %g (tolerance %v)",
			stallHold, float64(stallScale), stallTolerance)
	}
	if fid.State() < fidelity.Degraded {
		w.violationf("health %q after the stall, want at least degraded", rep.Health)
	}
	if rep.Breaches == 0 {
		w.violationf("no health breach recorded")
	}
	if rep.Dump == nil {
		w.violationf("no flight-recorder dump captured")
		return rep
	}
	var transitions, fires int
	for _, ev := range rep.Dump.Events {
		switch ev.Kind {
		case fidelity.EvStateTransition:
			transitions++
		case fidelity.EvBatchFire:
			fires++
		}
	}
	if transitions == 0 {
		w.violationf("dump holds no state-transition events (%d total)", len(rep.Dump.Events))
	}
	if fires == 0 {
		w.violationf("dump holds no batch-fire events (%d total)", len(rep.Dump.Events))
	}
	return rep
}
