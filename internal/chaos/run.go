package chaos

import (
	"fmt"
	"slices"
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
	Deliveries int // packets the clients actually received
	// CrossPeer counts deliveries received over trunks, TrunkDropped those
	// dropped on trunks a partition took down (zero below two peers).
	CrossPeer, TrunkDropped uint64
}

// Failure renders a failing run for the test log: the violations, the
// reproduction command, and the tail of the event log.
func (r Report) Failure() string {
	what, test := "chaos", "TestChaos"
	if n := r.Schedule.Cfg.Peers; n >= 2 {
		what = fmt.Sprintf("chaos at %d peers", n)
		test = "TestChaosFederation" + map[int]string{2: "TwoPeer", 3: "ThreePeer"}[n]
	}
	var b strings.Builder
	b.WriteString(r.failure(what+" (schedule digest "+r.Digest[:16]+")", test))
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
// world of Config.Peers servers, driven by the schedule's events. Every
// scene mutation is made on peer 0, the coordinator.
type Runner struct {
	*world
	cfg Config
	sch Schedule

	sc     *scene.Scene // peers[0]'s
	srv    *core.Server // peers[0]'s
	bursts sync.WaitGroup

	// lastRebuilds is each peer's ViewRebuilds reading of each channel at
	// the previous quiesce point — the baseline the isolation invariant
	// compares against.
	lastRebuilds map[rebuildKey]uint64
	allChannels  []radio.ChannelID
	// dropped is the trunks' drop count when the last partition healed:
	// with every trunk up it must not move.
	dropped uint64
}

// Run generates the schedule for cfg and executes it, checking every
// invariant at each quiesce point and the record/replay invariants at
// the end. The returned report carries any violations.
func Run(cfg Config) (rep Report) {
	cfg = cfg.Normalize()
	sch := GenerateSchedule(cfg)
	rep = Report{Outcome: Outcome{Seed: cfg.Seed}, Digest: sch.Digest(), Schedule: sch}
	// The server subscribes the store to scene events in NewServer, so
	// it must exist before nodes are added or the "add" records — which
	// the final position check folds — would be missing. The trunk and
	// heartbeat cadences, federation-only, see a heal in milliseconds.
	w, err := newWorld(cfg.Seed, vclock.NewSystem(cfg.Scale), cfg.Peers, 512, core.ServerConfig{
		Store: record.NewStore(), SendQueueDepth: cfg.QueueDepth, ObsSampleEvery: 4,
		Shards: cfg.Shards, RTTolerance: cfg.RTTolerance, ClusterID: "chaos",
		StatusEvery:     2 * time.Millisecond,
		TrunkMinBackoff: 500 * time.Microsecond,
		TrunkMaxBackoff: 4 * time.Millisecond,
	})
	if err != nil {
		rep.Violations = []string{fmt.Sprintf("setup: %v", err)}
		return rep
	}
	defer func() { rep.Outcome = w.close() }()
	r := &Runner{world: w, cfg: cfg, sch: sch, sc: w.peers[0].sc, srv: w.peers[0].srv}
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
	rep.Deliveries = int(r.sunk())
	if len(r.peers) > 1 {
		t := r.trunks()
		rep.CrossPeer, rep.TrunkDropped = t.RecvEntries, t.TrunkDropped
	}
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
		if err := r.setLinkModel(radio.ChannelID(ch), m); err != nil {
			return err
		}
		r.allChannels = append(r.allChannels, radio.ChannelID(ch))
	}
	if err := r.setCleanModel(QuarantineChannel, time.Millisecond); err != nil {
		return err
	}
	r.allChannels = append(r.allChannels, QuarantineChannel)
	if err := r.waitReplicated(); err != nil {
		return err
	}
	for i := 1; i <= cfg.Clients; i++ {
		if err := r.dial(radio.NodeID(i)); err != nil {
			return err
		}
	}
	// Rebuild baseline: setup mutations publish eagerly, every node has
	// reached every follower, and nothing is mobile yet, so the counts
	// are settled here.
	r.lastRebuilds = make(map[rebuildKey]uint64)
	r.checkIsolation("setup", r.allChannels)
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
	case EvPartition:
		r.replicated(fmt.Sprintf("partition %d", idx))
		r.partition(ev.Peer, (*gate).cut)
	case EvHeal:
		r.heal(fmt.Sprintf("heal %d", idx), ev.Peer)
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

// sessionExists asks the peer that owns id.
func (r *Runner) sessionExists(id radio.NodeID) bool {
	return slices.ContainsFunc(r.peers[r.byID[id].owner].srv.SessionStats(),
		func(st core.SessionStat) bool { return st.ID == id })
}

// reconnect re-dials a killed client until its old session is gone.
func (r *Runner) reconnect(id radio.NodeID) {
	if r.byID[id].current() != nil {
		return
	}
	var err error
	if !pollUntil(2*time.Second, func() bool { err = r.dial(id); return err == nil }) {
		r.violationf("reconnect n%d: %v", id, err)
	}
}

// heal settles the world while the partition still stands — so every
// packet sent inside it met the cut — waits for every trunk across the
// cut to have noticed it (a heartbeat write fails within StatusEvery),
// reopens the gates, waits for the trunks to redial, and then for the
// healed peers to apply what the partition held back.
func (r *Runner) heal(where string, v int) {
	r.bursts.Wait()
	r.settle(where)
	if !pollUntil(settleTimeout, func() bool { return r.trunksUp(v, false) }) {
		r.violationf("%s: a trunk to peer %d stayed up through the partition", where, v)
	}
	r.partition(v, (*gate).heal)
	if !pollUntil(settleTimeout, func() bool { return r.trunksUp(v, true) }) {
		r.violationf("%s: the trunks to peer %d never redialled", where, v)
	}
	r.dropped = r.trunks().TrunkDropped
	r.replicated(where)
}

// replicated checks a federation outside partitions: no trunk dropped
// an entry since the last heal, every follower applies the
// coordinator's journal so far and tells the coordinator so, and the
// coordinator finds no follower's scene digest different from its own.
func (r *Runner) replicated(where string) {
	if len(r.peers) < 2 {
		return
	}
	if d := r.trunks().TrunkDropped; d != r.dropped {
		r.violationf("%s: trunks dropped %d entries with every trunk up", where, d-r.dropped)
		r.dropped = d
	}
	rep := r.srv.Cluster().RepSeq
	lag := func() string {
		for p := 1; p < len(r.peers); p++ {
			got, heard := r.peers[p].srv.Cluster().AppliedSeq, r.srv.Cluster().PeerStats[p].AppliedSeq
			if got < rep || heard < rep {
				return fmt.Sprintf("peer %d applied %d (coordinator heard %d) < rep-seq %d", p, got, heard, rep)
			}
		}
		if n := r.srv.Cluster().Divergence; n != 0 {
			return fmt.Sprintf("%d follower(s) hold a scene whose digest differs from the coordinator's", n)
		}
		return ""
	}
	if !pollUntil(settleTimeout, func() bool { return lag() == "" }) {
		r.violationf("%s: replication: %s", where, lag())
	}
}

type rebuildKey struct {
	peer int
	ch   radio.ChannelID
}

// checkIsolation holds every peer to the window's touched channels: no
// other channel's view may have been rebuilt since the last reading — a
// replicated mutation rebuilds what it rebuilt on the coordinator.
func (r *Runner) checkIsolation(where string, touched []radio.ChannelID) {
	for p, q := range r.peers {
		for _, ch := range r.allChannels {
			k, n := rebuildKey{p, ch}, q.sc.ViewRebuilds(ch)
			if !slices.Contains(touched, ch) && n != r.lastRebuilds[k] {
				r.violationf("%s: isolation: peer %d ch%d rebuilt %d→%d but window touched only %v",
					where, p, ch, r.lastRebuilds[k], n, touched)
			}
			r.lastRebuilds[k] = n
		}
	}
}

// quiesce stops the sources, settles the world, and checks the
// invariants that depend on the schedule.
func (r *Runner) quiesce(idx int, ev Event) {
	r.bursts.Wait()
	where := fmt.Sprintf("quiesce %d", idx)
	r.settle(where)
	r.replicated(where)
	r.checkIsolation(where, ev.Touched)
	// Force a resync on every live client and verify its emulation clock
	// did not step backwards.
	for _, cl := range r.clients {
		ep := cl.current()
		if ep == nil {
			continue
		}
		if _, err := ep.c.Resync(); err != nil {
			r.violationf("%s: resync n%d: %v", where, ep.relay, err)
			continue
		}
		r.observeNow(ep)
		r.observeNow(ep)
	}
}
