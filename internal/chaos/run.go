package chaos

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Report is the outcome of one chaos run. A run passes when Violations
// is empty; a failing report carries everything needed to reproduce it.
type Report struct {
	Seed       int64
	Digest     string
	Schedule   Schedule
	Stats      core.ServerStats
	Deliveries int // packets the clients actually received
	Violations []string
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Failure renders a failing run for the test log: the violations, the
// reproduction command, and the tail of the event log.
func (r Report) Failure() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed %d violated %d invariant(s) (schedule digest %s)\n",
		r.Seed, len(r.Violations), r.Digest[:16])
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  ✗ %s\n", v)
	}
	fmt.Fprintf(&b, "reproduce with:\n  go test ./internal/chaos -run TestChaos -count=1 -chaos.seed=%d\n", r.Seed)
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

// fifoEntry is one schedule departure as seen by the deliver hook.
type fifoEntry struct {
	to  radio.NodeID
	key record.DeliveryKey
}

// fifoRecorder captures the scanner's global fire order — the oracle
// for the per-session FIFO invariant.
type fifoRecorder struct {
	mu      sync.Mutex
	entries []fifoEntry
}

func (f *fifoRecorder) hook(it sched.Item) {
	f.mu.Lock()
	f.entries = append(f.entries, fifoEntry{
		to: it.To,
		key: record.DeliveryKey{
			Src: it.Pkt.Src, Relay: it.To, Flow: it.Pkt.Flow, Seq: it.Pkt.Seq,
		},
	})
	f.mu.Unlock()
}

// perDst returns the fire order projected onto one destination.
func (f *fifoRecorder) perDst(id radio.NodeID) []record.DeliveryKey {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]record.DeliveryKey, 0, 64)
	for _, e := range f.entries {
		if e.to == id {
			out = append(out, e.key)
		}
	}
	return out
}

// epoch is one connection lifetime of one client: kill/reconnect starts
// a fresh epoch. The clock-monotonicity invariant is per epoch — a
// reconnected client syncs from scratch, so its stamps may legitimately
// start below the previous epoch's.
type epoch struct {
	relay  radio.NodeID
	faulty *transport.Faulty
	c      *core.Client
	sunk   atomic.Uint64

	mu      sync.Mutex
	recv    []record.DeliveryKey // receipt order, the FIFO ledger
	lastNow vclock.Time
}

func (ep *epoch) onPacket(p wire.Packet) {
	ep.mu.Lock()
	ep.recv = append(ep.recv, record.DeliveryKey{
		Src: p.Src, Relay: ep.relay, Flow: p.Flow, Seq: p.Seq,
	})
	ep.mu.Unlock()
	ep.sunk.Add(1)
}

// chaosClient is one VMN across all its epochs. Seq is allocated here,
// monotone across reconnects, so (src, flow, seq) names a send uniquely
// for the whole run.
type chaosClient struct {
	id  radio.NodeID
	seq atomic.Uint32

	mu     sync.Mutex
	epochs []*epoch
	cur    *epoch // nil while killed
}

func (cc *chaosClient) current() *epoch {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.cur
}

// Runner executes one generated schedule against a live emulation.
type Runner struct {
	cfg Config
	sch Schedule

	clk   vclock.WaitClock
	sc    *scene.Scene
	store *record.Store
	reg   *obs.Registry
	srv   *core.Server
	lis   *transport.InprocListener
	// pool backs every packet buffer the server touches (the listener is
	// wrapped in transport.PoolIngress), in leak-check mode: teardown
	// asserts Live()==0, which cross-checks the mbuf ownership discipline
	// against every exit path the scenario exercised.
	pool *mbuf.Pool

	serveDone chan struct{}
	fifo      fifoRecorder
	clients   map[radio.NodeID]*chaosClient
	bursts    sync.WaitGroup

	// lastRebuilds is each channel's ViewRebuilds reading at the previous
	// quiesce point — the baseline the isolation invariant compares
	// against.
	lastRebuilds map[radio.ChannelID]uint64
	allChannels  []radio.ChannelID

	mu         sync.Mutex
	violations []string
}

func (r *Runner) violationf(format string, args ...any) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// Run generates the schedule for cfg and executes it, checking every
// invariant at each quiesce point and the record/replay invariants at
// the end. The returned report carries any violations.
func Run(cfg Config) Report {
	cfg = cfg.Normalize()
	sch := GenerateSchedule(cfg)
	rep := Report{Seed: cfg.Seed, Digest: sch.Digest(), Schedule: sch}
	r := &Runner{
		cfg:          cfg,
		sch:          sch,
		clients:      make(map[radio.NodeID]*chaosClient),
		lastRebuilds: make(map[radio.ChannelID]uint64),
		serveDone:    make(chan struct{}),
	}
	baseGoroutines := runtime.NumGoroutine()
	if err := r.setup(); err != nil {
		rep.Violations = append(r.violations, fmt.Sprintf("setup: %v", err))
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
	rep.Deliveries = int(r.totalSunk())
	r.teardown()
	r.checkGoroutines(baseGoroutines)
	rep.Violations = r.violations
	return rep
}

func (r *Runner) setup() error {
	cfg := r.cfg
	r.clk = vclock.NewSystem(cfg.Scale)
	r.sc = scene.New(radio.NewIndexed(512), r.clk, cfg.Seed)
	r.store = record.NewStore()
	r.reg = obs.NewRegistry()

	// The server subscribes the store to scene events in NewServer, so
	// it must exist before nodes are added or the "add" records — which
	// the final position check folds — would be missing.
	scfg := core.ServerConfig{
		Clock: r.clk, Scene: r.sc, Store: r.store, Seed: cfg.Seed,
		SendQueueDepth: cfg.QueueDepth, Obs: r.reg, ObsSampleEvery: 4,
		Shards: cfg.Shards, RTTolerance: cfg.RTTolerance,
	}
	if cfg.Peers > 1 {
		return fmt.Errorf("chaos: Config.Peers > 1 needs the federated harness (RunFederated)")
	}
	if cfg.Peers == 1 {
		// Single-peer cluster: the federation routing tier is live on
		// every packet but always resolves local — the digest-identity
		// baseline against Peers: 0.
		scfg.Peers = []core.PeerSpec{{Addr: "self"}}
		scfg.ClusterID = "chaos"
	}
	srv, err := core.NewServer(scfg)
	if err != nil {
		return err
	}
	r.srv = srv
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
	clean, err := linkmodel.New(linkmodel.NoLoss{}, linkmodel.ConstantBandwidth{Bps: 1e9},
		linkmodel.ConstantDelay{D: time.Millisecond})
	if err != nil {
		return err
	}
	if err := r.sc.SetLinkModel(QuarantineChannel, clean); err != nil {
		return err
	}
	r.allChannels = append(r.allChannels, QuarantineChannel)

	srv.SetDeliverHook(r.fifo.hook)
	r.lis = transport.NewInprocListener()
	r.pool = mbuf.NewPool()
	r.pool.SetLeakCheck(true)
	ingress := transport.PoolIngress(r.lis, r.pool)
	go func() {
		defer close(r.serveDone)
		srv.Serve(ingress)
	}()

	for i := 1; i <= cfg.Clients; i++ {
		id := radio.NodeID(i)
		r.clients[id] = &chaosClient{id: id}
		if err := r.dial(id); err != nil {
			return fmt.Errorf("dial client %v: %w", id, err)
		}
	}
	// Rebuild baseline: setup mutations publish eagerly, and nothing is
	// mobile yet, so the counts are settled here.
	for _, ch := range r.allChannels {
		r.lastRebuilds[ch] = r.sc.ViewRebuilds(ch)
	}
	return nil
}

// dial opens a fresh epoch for id: a Faulty-wrapped in-proc connection
// (impairing only Data, so handshake and clock sync stay reliable) and
// a client on a deliberately drifting local clock, resyncing constantly
// to stress the monotonic stamp floor.
func (r *Runner) dial(id radio.NodeID) error {
	cc := r.clients[id]
	cc.mu.Lock()
	epIdx := len(cc.epochs)
	cc.mu.Unlock()
	ep := &epoch{relay: id}
	dialer := func() (transport.Conn, error) {
		conn, err := r.lis.Dial()
		if err != nil {
			return nil, err
		}
		f := transport.NewFaulty(conn, r.cfg.Seed^int64(id)<<20^int64(epIdx)<<8)
		f.SetMatch(func(m wire.Msg) bool {
			_, ok := m.(*wire.Data)
			return ok
		})
		ep.faulty = f
		return f, nil
	}
	drift := 1 + float64(int(id)%5-2)*1e-4
	c, err := core.Dial(core.ClientConfig{
		ID:          id,
		Dial:        dialer,
		LocalClock:  vclock.NewDrifting(r.clk, drift),
		SyncRounds:  3,
		ResyncEvery: 3 * time.Millisecond,
		OnPacket:    ep.onPacket,
	})
	if err != nil {
		return err
	}
	ep.c = c
	cc.mu.Lock()
	cc.epochs = append(cc.epochs, ep)
	cc.cur = ep
	cc.mu.Unlock()
	return nil
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
		if ep := r.clients[ev.Node].current(); ep != nil {
			ep.faulty.SetImpairments(ev.Drop, ev.Dup, ev.Reorder)
		}
	case EvClearImpair:
		if ep := r.clients[ev.Node].current(); ep != nil {
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
	cc := r.clients[ev.Node]
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
	cc := r.clients[id]
	cc.mu.Lock()
	ep := cc.cur
	cc.cur = nil
	cc.mu.Unlock()
	if ep == nil {
		return
	}
	ep.faulty.Close()
	ep.c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for r.sessionExists(id) {
		if time.Now().After(deadline) {
			r.violationf("kill: server never reaped session n%d", id)
			return
		}
		time.Sleep(200 * time.Microsecond)
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
	if r.clients[id].current() != nil {
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

func (r *Runner) totalWired() uint64 {
	var sum uint64
	for _, cc := range r.clients {
		cc.mu.Lock()
		for _, ep := range cc.epochs {
			sum += ep.faulty.Stats().Wired
		}
		cc.mu.Unlock()
	}
	return sum
}

func (r *Runner) totalSunk() uint64 {
	var sum uint64
	for _, cc := range r.clients {
		cc.mu.Lock()
		for _, ep := range cc.epochs {
			sum += ep.sunk.Load()
		}
		cc.mu.Unlock()
	}
	return sum
}

// pollUntil retries cond every 200µs until it holds or the deadline
// passes.
func pollUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// quiesce drains the pipeline and checks every steady-state invariant.
// The drain itself is part of the contract: each step below must settle
// exactly, or the conservation ledger is broken somewhere.
func (r *Runner) quiesce(idx int, ev Event) {
	// 1. Stop the sources: join every in-flight burst, then release any
	// reorder slot still holding a message hostage.
	r.bursts.Wait()
	for _, cc := range r.clients {
		if ep := cc.current(); ep != nil {
			ep.faulty.Flush()
		}
	}
	// 2. Everything wired into a connection must be ingested: the
	// transport's Wired count is ground truth for what the server will
	// receive (a send racing a close either fails, and is not counted,
	// or buffers successfully, and is always drained).
	wired := r.totalWired()
	if !pollUntil(5*time.Second, func() bool { return r.srv.Stats().Received == wired }) {
		r.violationf("quiesce %d: conservation: received %d != wired %d",
			idx, r.srv.Stats().Received, wired)
	}
	// 3. Drain the schedule and every send queue.
	if !r.srv.Quiesce(5 * time.Second) {
		r.violationf("quiesce %d: pipeline did not drain (scheduled=%d)",
			idx, r.srv.Stats().Scheduled)
	}
	// 4. Every forwarded packet must arrive at a client sink.
	if !pollUntil(5*time.Second, func() bool {
		return r.totalSunk() == r.srv.Stats().Forwarded
	}) {
		r.violationf("quiesce %d: conservation: sunk %d != forwarded %d",
			idx, r.totalSunk(), r.srv.Stats().Forwarded)
	}
	// 5. The ledger balances exactly: every schedule entry ended as
	// forwarded, queue-dropped, or abandoned.
	st := r.srv.Stats()
	if st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned {
		r.violationf("quiesce %d: ledger: entered %d != forwarded %d + queueDrops %d + abandoned %d",
			idx, st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
	}
	r.checkObsCounters(idx, st)
	r.checkFIFO(fmt.Sprintf("quiesce %d", idx))
	// 6. Rebuild isolation: only the window's touched channels may have
	// new view rebuilds.
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
	// 7. Force a resync on every live client and verify its emulation
	// clock did not step backwards.
	for _, cc := range r.clients {
		ep := cc.current()
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

// checkObsCounters cross-checks the server stats against the metrics
// registry: the observability layer must agree with the pipeline it
// observes.
func (r *Runner) checkObsCounters(idx int, st core.ServerStats) {
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"poem_received_total", st.Received},
		{"poem_forwarded_total", st.Forwarded},
		{"poem_dropped_total", st.Dropped},
		{"poem_noroute_total", st.NoRoute},
		{"poem_queue_drops_total", st.QueueDrops},
		{"poem_schedule_entries_total", st.Entered},
		{"poem_abandoned_total", st.Abandoned},
	} {
		if got := r.reg.Counter(c.name, "").Load(); got != c.want {
			r.violationf("quiesce %d: obs: %s = %d, stats say %d", idx, c.name, got, c.want)
		}
	}
}

// checkFIFO verifies each client's received order is a subsequence of
// the scanner's fire order projected onto that client. Epoch receive
// lists concatenate in epoch order: a new session only receives items
// fired after it registered, so the concatenation preserves order.
func (r *Runner) checkFIFO(where string) {
	for _, cc := range r.clients {
		received := r.receivedOrder(cc)
		fired := r.fifo.perDst(cc.id)
		i := 0
		for _, k := range received {
			for i < len(fired) && fired[i] != k {
				i++
			}
			if i == len(fired) {
				r.violationf("%s: fifo: n%d received %v→%v flow=%d seq=%d out of schedule order",
					where, cc.id, k.Src, k.Relay, k.Flow, k.Seq)
				break
			}
			i++
		}
	}
}

func (r *Runner) receivedOrder(cc *chaosClient) []record.DeliveryKey {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var out []record.DeliveryKey
	for _, ep := range cc.epochs {
		ep.mu.Lock()
		out = append(out, ep.recv...)
		ep.mu.Unlock()
	}
	return out
}

func (r *Runner) teardown() {
	r.bursts.Wait()
	r.srv.SetDeliverHook(nil)
	for _, cc := range r.clients {
		cc.mu.Lock()
		ep := cc.cur
		cc.cur = nil
		cc.mu.Unlock()
		if ep != nil {
			ep.c.Close()
		}
	}
	r.lis.Close()
	r.srv.Close()
	<-r.serveDone
	// Leak check: with sessions joined, schedules drained by Close, and
	// client receive loops exited, every pooled buffer must be back in
	// the pool. A residue pins the exit path that forgot its Free.
	if live := r.pool.Live(); live != 0 {
		r.violationf("teardown: mbuf leak: %d pooled buffers still live", live)
	}
}

// checkGoroutines verifies the run did not leak goroutines: after
// teardown the count must return to (near) the pre-run level. The small
// allowance covers runtime-internal goroutines that come and go.
func (r *Runner) checkGoroutines(base int) {
	ok := pollUntil(2*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+3
	})
	if !ok {
		r.violationf("teardown: goroutine leak: %d now vs %d at start",
			runtime.NumGoroutine(), base)
	}
}
