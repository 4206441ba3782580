package chaos

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Report is the outcome of one chaos run; a failing report carries
// everything needed to reproduce it.
type Report struct {
	Outcome
	Digest     string
	Schedule   Schedule
	Stats      core.ServerStats
	Deliveries int // packets the clients actually received
}

// Failure renders a failing run for the test log: the violations, the
// reproduction command, and the tail of the event log.
func (r Report) Failure() string {
	var b strings.Builder
	b.WriteString(r.failure("chaos (schedule digest "+r.Digest[:16]+")", "TestChaos"))
	lines := r.Schedule.Lines()
	tail := 30
	if len(lines) < tail {
		tail = len(lines)
	}
	fmt.Fprintf(&b, "event log (last %d of %d lines):\n", tail, len(lines))
	for _, l := range lines[len(lines)-tail:] {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String()
}

// Runner executes one generated schedule against a live emulation: a
// world of one server, driven by the schedule's events.
type Runner struct {
	*world
	cfg Config
	sch Schedule

	sc     *scene.Scene // peers[0]'s
	srv    *core.Server // peers[0]'s
	store  *record.Store
	bursts sync.WaitGroup

	// lastRebuilds is each channel's ViewRebuilds reading at the previous
	// quiesce point — the baseline the isolation invariant compares
	// against.
	lastRebuilds map[radio.ChannelID]uint64
	allChannels  []radio.ChannelID
}

// Run generates the schedule for cfg and executes it, checking every
// invariant at each quiesce point and the record/replay invariants at
// the end. The returned report carries any violations.
func Run(cfg Config) (rep Report) {
	cfg = cfg.Normalize()
	sch := GenerateSchedule(cfg)
	rep = Report{Outcome: Outcome{Seed: cfg.Seed}, Digest: sch.Digest(), Schedule: sch}
	if cfg.Peers > 1 {
		rep.Violations = []string{"setup: chaos: Config.Peers > 1 needs the federated harness (RunFederated)"}
		return rep
	}
	// The server subscribes the store to scene events in NewServer, so
	// it must exist before nodes are added or the "add" records — which
	// the final position check folds — would be missing.
	store := record.NewStore()
	w, err := newWorld(cfg.Seed, vclock.NewSystem(cfg.Scale), cfg.Peers, 512, core.ServerConfig{
		Store: store, SendQueueDepth: cfg.QueueDepth, ObsSampleEvery: 4,
		Shards: cfg.Shards, RTTolerance: cfg.RTTolerance, ClusterID: "chaos",
	})
	if err != nil {
		rep.Violations = []string{fmt.Sprintf("setup: %v", err)}
		return rep
	}
	defer func() { rep.Outcome = w.close() }()
	r := &Runner{
		world: w, cfg: cfg, sch: sch, store: store,
		sc: w.peers[0].sc, srv: w.peers[0].srv,
		lastRebuilds: make(map[radio.ChannelID]uint64),
	}
	defer r.bursts.Wait()
	if err := r.setup(); err != nil {
		r.violationf("setup: %v", err)
		return rep
	}
	for i, ev := range sch.Events {
		r.execute(i, ev)
	}
	// The schedule always ends in a quiesce, so the pipeline is drained:
	// safe to freeze the scene and settle the whole-run record/replay
	// invariants before teardown.
	r.finalChecks()
	rep.Stats = r.srv.Stats()
	rep.Deliveries = int(r.sunk())
	return rep
}

func (r *Runner) setup() error {
	cfg := r.cfg
	for _, n := range r.sch.Setup {
		if err := r.sc.AddNode(n.ID, n.Pos, n.Radios); err != nil {
			return fmt.Errorf("add node %v: %w", n.ID, err)
		}
	}
	// Lossy, delayed channels for the traffic; the quarantine channel
	// gets an explicit clean model so it has a view to (not) rebuild.
	for ch := 1; ch <= cfg.Channels; ch++ {
		m, err := linkmodel.New(
			linkmodel.ConstantLoss{P: 0.05 + 0.04*float64(ch%3)},
			linkmodel.ConstantBandwidth{Bps: 1e8},
			linkmodel.ConstantDelay{D: time.Duration(1+ch%3) * time.Millisecond},
		)
		if err != nil {
			return err
		}
		if err := r.sc.SetLinkModel(radio.ChannelID(ch), m); err != nil {
			return err
		}
		r.allChannels = append(r.allChannels, radio.ChannelID(ch))
	}
	if err := r.setCleanModel(QuarantineChannel, time.Millisecond); err != nil {
		return err
	}
	r.allChannels = append(r.allChannels, QuarantineChannel)

	for i := 1; i <= cfg.Clients; i++ {
		if err := r.dial(radio.NodeID(i)); err != nil {
			return err
		}
	}
	// Rebuild baseline: setup mutations publish eagerly, and nothing is
	// mobile yet, so the counts are settled here.
	for _, ch := range r.allChannels {
		r.lastRebuilds[ch] = r.sc.ViewRebuilds(ch)
	}
	return nil
}

// dial opens a fresh epoch for id with a client on a deliberately
// drifting local clock, resyncing constantly to stress the monotonic
// stamp floor.
func (r *Runner) dial(id radio.NodeID) error {
	drift := 1 + float64(int(id)%5-2)*1e-4
	return r.world.dial(id, core.ClientConfig{
		LocalClock:  vclock.NewDrifting(r.clk, drift),
		SyncRounds:  3,
		ResyncEvery: 3 * time.Millisecond,
	})
}

func (r *Runner) execute(idx int, ev Event) {
	switch ev.Kind {
	case EvBurst:
		r.burst(ev)
	case EvSleep:
		time.Sleep(ev.Sleep)
	case EvSetRange:
		r.sc.SetRange(ev.Node, ev.Channel, ev.Range)
	case EvSwitchChannel:
		r.switchChannel(ev)
	case EvMoveNode:
		r.sc.MoveNode(ev.Node, geom.V(ev.X, ev.Y))
	case EvSetMobility:
		r.sc.SetMobility(ev.Node, mobility.RandomWalk(5, 20, 0.1, Region))
	case EvClearMobility:
		r.sc.ClearMobility(ev.Node)
	case EvPause:
		r.sc.SetPaused(true)
	case EvResume:
		r.sc.SetPaused(false)
	case EvImpair:
		if ep := r.byID[ev.Node].current(); ep != nil {
			ep.faulty.SetImpairments(ev.Drop, ev.Dup, ev.Reorder)
		}
	case EvClearImpair:
		if ep := r.byID[ev.Node].current(); ep != nil {
			ep.faulty.SetImpairments(0, 0, 0)
			ep.faulty.Flush()
		}
	case EvKill:
		r.kill(ev.Node)
	case EvReconnect:
		r.reconnect(ev.Node)
	case EvQuiesce:
		r.quiesce(idx, ev)
	}
}

// switchChannel retunes the node's radio from ev.Channel to ev.NewCh,
// reading the live radio set so execution matches whatever the scene
// actually holds.
func (r *Runner) switchChannel(ev Event) {
	n, ok := r.sc.Node(ev.Node)
	if !ok {
		r.violationf("switch: node %v missing from scene", ev.Node)
		return
	}
	radios := append([]radio.Radio(nil), n.Radios...)
	for i := range radios {
		if radios[i].Channel == ev.Channel {
			radios[i].Channel = ev.NewCh
			r.sc.SetRadios(ev.Node, radios)
			return
		}
	}
	r.violationf("switch: node %v has no radio on ch%d", ev.Node, ev.Channel)
}

func (r *Runner) burst(ev Event) {
	cc := r.byID[ev.Node]
	ep := cc.current()
	if ep == nil {
		return // killed by an earlier event in this window
	}
	r.bursts.Add(1)
	go func() {
		defer r.bursts.Done()
		payload := []byte("chaos-harness-payload-64-bytes--chaos-harness-payload-64-bytes--")
		for i := 0; i < ev.Count; i++ {
			seq := cc.seq.Add(1)
			err := ep.c.Send(wire.Packet{
				Dst: ev.Dst, Channel: ev.Channel, Flow: ev.Flow,
				Seq: seq, Payload: payload,
			})
			if err != nil {
				return // connection killed mid-burst; expected chaos
			}
			r.observeNow(ep)
			time.Sleep(50 * time.Microsecond)
		}
	}()
}

// observeNow samples the epoch's emulation clock and checks it never
// runs backwards. Read and compare happen under the epoch lock so two
// concurrent samples cannot observe each other out of order.
func (r *Runner) observeNow(ep *epoch) {
	ep.mu.Lock()
	now := ep.c.Now()
	if now < ep.lastNow {
		r.violationf("clock: n%d emulation clock ran backwards: %v after %v",
			ep.relay, now, ep.lastNow)
	}
	ep.lastNow = now
	ep.mu.Unlock()
}

// kill hard-closes the client's transport (no Bye, in-flight messages
// lost or half-delivered) and waits for the server to reap the session
// so a later reconnect cannot race the duplicate-VMN check.
func (r *Runner) kill(id radio.NodeID) {
	cc := r.byID[id]
	cc.mu.Lock()
	ep := cc.cur
	cc.cur = nil
	cc.mu.Unlock()
	if ep == nil {
		return
	}
	ep.faulty.Close()
	ep.c.Close()
	if !pollUntil(2*time.Second, func() bool { return !r.sessionExists(id) }) {
		r.violationf("kill: server never reaped session n%d", id)
	}
}

func (r *Runner) sessionExists(id radio.NodeID) bool {
	for _, st := range r.srv.SessionStats() {
		if st.ID == id {
			return true
		}
	}
	return false
}

func (r *Runner) reconnect(id radio.NodeID) {
	if r.byID[id].current() != nil {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := r.dial(id)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			r.violationf("reconnect n%d: %v", id, err)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// quiesce stops the sources, settles the world, and checks the
// invariants that depend on the schedule.
func (r *Runner) quiesce(idx int, ev Event) {
	r.bursts.Wait()
	r.settle(fmt.Sprintf("quiesce %d", idx))
	// Rebuild isolation: only the window's touched channels may have new
	// view rebuilds.
	touched := make(map[radio.ChannelID]bool, len(ev.Touched))
	for _, ch := range ev.Touched {
		touched[ch] = true
	}
	for _, ch := range r.allChannels {
		n := r.sc.ViewRebuilds(ch)
		if !touched[ch] && n != r.lastRebuilds[ch] {
			r.violationf("quiesce %d: isolation: ch%d rebuilt %d→%d but window touched only %v",
				idx, ch, r.lastRebuilds[ch], n, ev.Touched)
		}
		r.lastRebuilds[ch] = n
	}
	// Force a resync on every live client and verify its emulation clock
	// did not step backwards.
	for _, cl := range r.clients {
		ep := cl.current()
		if ep == nil {
			continue
		}
		if _, err := ep.c.Resync(); err != nil {
			r.violationf("quiesce %d: resync n%d: %v", idx, ep.relay, err)
			continue
		}
		r.observeNow(ep)
		r.observeNow(ep)
	}
}
