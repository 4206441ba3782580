package chaos

// The one chaos apparatus. Every scenario (Run at any peer count,
// RunStall, RunGatewayStall) is a script over a world: one clock, one
// leak-checked buffer pool, N servers each behind a pooled ingress with
// its own fire-order recorder and obs registry, partitionable trunks
// between them, and endpoints — Faulty-tapped clients, plus whatever a
// scenario registers through extraWired/extraSunk — whose own counters
// are the ground truth the servers' ledgers are judged against. settle
// drains the world and checks every steady-state invariant; close tears
// it down and checks buffers and goroutines. A scenario adds traffic,
// faults and its own verdicts, nothing else.

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Outcome is what every scenario report carries: the seed that names
// the run and the invariants it violated. A run passes when Violations
// is empty.
type Outcome struct {
	Seed       int64
	Violations []string
	// What the shared checks had to work on: pooled buffers allocated and
	// schedule departures recorded, summed over the servers. The tests
	// assert both are non-zero, so no scenario passes vacuously.
	allocs uint64
	fired  int
}

// OK reports whether every invariant held.
func (o Outcome) OK() bool { return len(o.Violations) == 0 }

// failure renders a failing run for the test log: what ran, the
// violations, and the command that reproduces it through test.
func (o Outcome) failure(what, test string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed %d violated %d invariant(s)\n", what, o.Seed, len(o.Violations))
	for _, v := range o.Violations {
		fmt.Fprintf(&b, "  ✗ %s\n", v)
	}
	fmt.Fprintf(&b, "reproduce with:\n  go test ./internal/chaos -run %s -count=1 -chaos.seed=%d\n", test, o.Seed)
	return b.String()
}

// fifoEntry is one schedule departure as seen by the deliver hook.
type fifoEntry struct {
	to  radio.NodeID
	key record.DeliveryKey
}

// fifoRecorder captures one server's global fire order — the oracle for
// the per-session FIFO invariant.
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

// client is one VMN across all its epochs, attached to the peer that
// owns it. Seq is allocated here, monotone across reconnects, so
// (src, flow, seq) names a send uniquely for the whole run.
type client struct {
	id    radio.NodeID
	owner int
	seq   atomic.Uint32

	mu     sync.Mutex
	epochs []*epoch
	cur    *epoch // nil while killed
}

func (cl *client) current() *epoch {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.cur
}

// gate is a partitionable trunk dialer for one directed peer pair:
// while down, dials fail, and cutting closes every connection it
// previously handed out.
type gate struct {
	dial transport.Dialer

	mu    sync.Mutex
	down  bool
	conns []transport.Conn
}

func (g *gate) Dial() (transport.Conn, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down {
		return nil, fmt.Errorf("chaos: partitioned")
	}
	c, err := g.dial()
	if err != nil {
		return nil, err
	}
	g.conns = append(g.conns, c)
	return c, nil
}

func (g *gate) cut() {
	g.mu.Lock()
	g.down = true
	conns := g.conns
	g.conns = nil
	g.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// redirect makes later dials reach d.
func (g *gate) redirect(d transport.Dialer) {
	g.mu.Lock()
	g.dial = d
	g.mu.Unlock()
}

func (g *gate) heal() {
	g.mu.Lock()
	g.down = false
	g.mu.Unlock()
}

// peer is one server of the world with everything that observes it.
type peer struct {
	sc   *scene.Scene
	reg  *obs.Registry
	srv  *core.Server
	lis  *transport.InprocListener
	done chan struct{} // closed when Serve returns
	fifo fifoRecorder
	// gates[dst] is this peer's trunk dialer towards peer dst; nil for
	// itself and on an unfederated world.
	gates []*gate
	store *record.Store // nil unless the world records
}

type world struct {
	seed int64
	clk  vclock.WaitClock
	// pool backs every packet buffer the servers touch (each listener is
	// wrapped in transport.PoolIngress), in leak-check mode: close asserts
	// Live()==0, which cross-checks the mbuf ownership discipline against
	// every exit path the scenario exercised.
	pool  *mbuf.Pool
	peers []*peer
	base  int // goroutines before the world existed
	// fed and tmpl are what newWorld was given to start each server
	// with: whether the peers federate, and the scenario's settings.
	fed  bool
	tmpl core.ServerConfig

	clients []*client // in first-dial order
	byID    map[radio.NodeID]*client
	// extraWired/extraSunk are the in/out terms of an endpoint that is
	// not a client of the world (the gateway): what it put into a server
	// and what a server delivered to it, by its own count.
	extraWired, extraSunk func() uint64

	mu         sync.Mutex
	violations []string
}

func (w *world) violationf(format string, args ...any) {
	w.mu.Lock()
	w.violations = append(w.violations, fmt.Sprintf(format, args...))
	w.mu.Unlock()
}

// newWorld builds and serves the servers: n == 0 is one unclustered
// server, 1 a single-entry cluster (the routing tier live on every
// packet, always resolving local), ≥ 2 a federation with peer 0
// coordinating and a gate on every directed trunk. tmpl carries the
// scenario's own server settings; the world fills in what it owns. A
// tmpl.Store records peer 0 and every other peer gets a fresh one: a
// shared store would interleave the peers' scene records.
func newWorld(seed int64, clk vclock.WaitClock, n int, cell float64, tmpl core.ServerConfig) (*world, error) {
	w := &world{
		seed: seed, clk: clk, pool: mbuf.NewPool(), fed: n > 0, tmpl: tmpl,
		base: runtime.NumGoroutine(), byID: make(map[radio.NodeID]*client),
	}
	w.pool.SetLeakCheck(true)
	for i := 0; i < max(n, 1); i++ {
		w.peers = append(w.peers, w.newPeer(cell))
	}
	for i := range w.peers {
		if err := w.start(i); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// newPeer is a peer with an empty scene and a listener, not yet served.
func (w *world) newPeer(cell float64) *peer {
	return &peer{
		sc:  scene.New(radio.NewIndexed(cell), w.clk, w.seed),
		reg: obs.NewRegistry(),
		lis: transport.NewInprocListener(), done: make(chan struct{}),
	}
}

// start builds peer i's server and serves it.
func (w *world) start(i int) error {
	p := w.peers[i]
	cfg := w.tmpl
	cfg.Clock, cfg.Scene, cfg.Seed, cfg.Obs = w.clk, p.sc, w.seed, p.reg
	if w.tmpl.Store != nil && i > 0 {
		cfg.Store = record.NewStore()
	}
	p.store = cfg.Store
	if w.fed {
		n := len(w.peers)
		cfg.Self = i
		cfg.Peers = make([]core.PeerSpec, n)
		p.gates = make([]*gate, n)
		for dst := range cfg.Peers {
			cfg.Peers[dst].Addr = fmt.Sprintf("peer%d", dst)
			if dst != i {
				p.gates[dst] = &gate{dial: w.peers[dst].lis.Dialer()}
				cfg.Peers[dst].Dial = p.gates[dst].Dial
			}
		}
	}
	srv, err := core.NewServer(cfg)
	if err != nil {
		return err
	}
	p.srv = srv
	srv.SetDeliverHook(p.fifo.hook)
	go func() {
		defer close(p.done)
		p.srv.Serve(transport.PoolIngress(p.lis, w.pool))
	}()
	return nil
}

// stop closes peer i's listener and server, as a killed poemd.
func (w *world) stop(i int) {
	p := w.peers[i]
	p.srv.SetDeliverHook(nil)
	p.lis.Close()
	p.srv.Close()
	<-p.done
}

// restart puts a fresh server with an empty scene on a new listener in
// place of the stopped peer i — a poemd started again, or late — and
// points the other peers' trunks at it.
func (w *world) restart(i int, cell float64) error {
	w.peers[i] = w.newPeer(cell)
	for _, q := range w.peers {
		if q.gates != nil && q.gates[i] != nil {
			q.gates[i].redirect(w.peers[i].lis.Dialer())
		}
	}
	return w.start(i)
}

// dial opens a fresh epoch for id on its owning peer. Every client of
// every scenario goes through a Faulty tap that impairs only Data (so
// handshake and clock sync stay reliable) and impairs nothing until the
// scenario says so: its Wired count is what this endpoint put into the
// server, counted outside the server. ccfg carries the scenario's sync
// settings; ID, Dial, OnPacket and a nil LocalClock are the world's.
func (w *world) dial(id radio.NodeID, ccfg core.ClientConfig) error {
	cl := w.byID[id]
	if cl == nil {
		cl = &client{id: id, owner: core.PeerIndex(id, len(w.peers))}
		w.byID[id] = cl
		w.clients = append(w.clients, cl)
	}
	cl.mu.Lock()
	epIdx := len(cl.epochs)
	cl.mu.Unlock()
	ep := &epoch{relay: id}
	ccfg.ID, ccfg.OnPacket = id, ep.onPacket
	ccfg.Dial = func() (transport.Conn, error) {
		conn, err := w.peers[cl.owner].lis.Dial()
		if err != nil {
			return nil, err
		}
		f := transport.NewFaulty(conn, w.seed^int64(id)<<20^int64(epIdx)<<8)
		f.SetMatch(func(m wire.Msg) bool {
			_, ok := m.(*wire.Data)
			return ok
		})
		ep.faulty = f
		return f, nil
	}
	if ccfg.LocalClock == nil {
		ccfg.LocalClock = w.clk
	}
	c, err := core.Dial(ccfg)
	if err != nil {
		return fmt.Errorf("dial n%d on peer %d: %w", id, cl.owner, err)
	}
	ep.c = c
	cl.mu.Lock()
	cl.epochs = append(cl.epochs, ep)
	cl.cur = ep
	cl.mu.Unlock()
	return nil
}

// cleanModel is a lossless constant-delay link model.
func cleanModel(delay time.Duration) (linkmodel.Model, error) {
	return linkmodel.New(linkmodel.NoLoss{}, linkmodel.ConstantBandwidth{Bps: 1e9},
		linkmodel.ConstantDelay{D: delay})
}

// setCleanModel installs cleanModel(delay) on channel ch of every
// peer's scene.
func (w *world) setCleanModel(ch radio.ChannelID, delay time.Duration) error {
	m, err := cleanModel(delay)
	if err != nil {
		return err
	}
	return w.setLinkModel(ch, m)
}

// setLinkModel installs m on channel ch of every peer's scene. Link
// models are live Go values, not replicated state: every peer configures
// its own, exactly as N real poemd processes would share a config file.
func (w *world) setLinkModel(ch radio.ChannelID, m linkmodel.Model) error {
	for _, p := range w.peers {
		if err := p.sc.SetLinkModel(ch, m); err != nil {
			return err
		}
	}
	return nil
}

// waitReplicated waits until every follower scene holds every node of
// the coordinator's — a client can only register with its owner once
// replication has put its node there.
func (w *world) waitReplicated() error {
	ok := pollUntil(settleTimeout, func() bool {
		for _, n := range w.peers[0].sc.Snapshot() {
			for _, p := range w.peers[1:] {
				if !p.sc.HasNode(n.ID) {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("scene setup never replicated to all peers")
	}
	return nil
}

// tightCluster populates the world with nodes 1..n on channel 1, every
// one in every other's range behind a clean constant-delay model, and a
// plain one-sync-round client each: a broadcast becomes exactly n-1
// scheduled deliveries.
func (w *world) tightCluster(n int, delay time.Duration) error {
	if err := w.setCleanModel(1, delay); err != nil {
		return err
	}
	for i := 1; i <= n; i++ {
		err := w.peers[0].sc.AddNode(radio.NodeID(i), geom.V(float64(i)*5, 0),
			[]radio.Radio{{Channel: 1, Range: 1000}})
		if err != nil {
			return fmt.Errorf("add node %d: %w", i, err)
		}
	}
	if err := w.waitReplicated(); err != nil {
		return err
	}
	for i := 1; i <= n; i++ {
		if err := w.dial(radio.NodeID(i), core.ClientConfig{SyncRounds: 1}); err != nil {
			return err
		}
	}
	return nil
}

// stallStorm piles stallPackets broadcasts from sender behind a frozen
// clock, holds the freeze for stallHold of wall time once the servers
// have ingested them, and releases it: everything queued is then overdue
// by stallScale×stallHold and fires as one late pile. It reports whether
// the storm went in.
func (w *world) stallStorm(clk *vclock.StallClock, sender *core.Client, flow uint16) bool {
	if !syncStormSender(sender, clk) {
		w.violationf("stall: sender clock %v behind the server after 64 resyncs", clk.Now().Sub(sender.Now()))
		return false
	}
	want := w.stats().Received + stallPackets
	clk.Stall()
	defer clk.Resume()
	for k := 0; k < stallPackets; k++ {
		if err := sender.Broadcast(1, flow, []byte("clock-stall-payload")); err != nil {
			w.violationf("stall: storm broadcast %d: %v", k, err)
			return false
		}
	}
	// Ingest commits (Received counts it) but every delivery's due time
	// sits just past the frozen now, so the scanners wait.
	if !pollUntil(settleTimeout, func() bool { return w.stats().Received >= want }) {
		w.violationf("stall: servers ingested %d of %d packets", w.stats().Received, want)
		return false
	}
	time.Sleep(stallHold) // the inner clock runs ahead by stallScale×stallHold
	return true
}

// stats sums, across the peers, the ingress and egress counters settle
// balances, the schedule's entries and the link-model drops a recording
// replays; every other field of the result is zero.
func (w *world) stats() (sum core.ServerStats) {
	for _, p := range w.peers {
		st := p.srv.Stats()
		sum.Received += st.Received
		sum.Entered += st.Entered
		sum.Forwarded += st.Forwarded
		sum.Dropped += st.Dropped
		sum.NoRoute += st.NoRoute
	}
	return sum
}

// trunks sums the cluster data-path counters across the peers of a
// federated world; every other field of the result is zero.
func (w *world) trunks() (sum core.ClusterStat) {
	for _, p := range w.peers {
		cs := p.srv.Cluster()
		sum.RemoteEntries += cs.RemoteEntries
		sum.PendingEntries += cs.PendingEntries
		sum.RecvEntries += cs.RecvEntries
		sum.TrunkDropped += cs.TrunkDropped
		sum.RepErrors += cs.RepErrors
	}
	return sum
}

// partition applies op — (*gate).cut or (*gate).heal — to both trunk
// directions between peer v and every other peer.
func (w *world) partition(v int, op func(*gate)) {
	for p, q := range w.peers {
		if p != v {
			op(q.gates[v])
			op(w.peers[v].gates[p])
		}
	}
}

// trunksUp reports whether every trunk between peer v and the others is
// up (or, with up false, down).
func (w *world) trunksUp(v int, up bool) bool {
	for p, q := range w.peers {
		if p != v && (q.srv.Cluster().PeerStats[v].TrunkUp != up || w.peers[v].srv.Cluster().PeerStats[p].TrunkUp != up) {
			return false
		}
	}
	return true
}

// epochSum adds get over every epoch of every client, plus extra (when
// set): one of the two terms the endpoints report about themselves.
func (w *world) epochSum(extra func() uint64, get func(*epoch) uint64) uint64 {
	var sum uint64
	if extra != nil {
		sum = extra()
	}
	for _, cl := range w.clients {
		cl.mu.Lock()
		for _, ep := range cl.epochs {
			sum += get(ep)
		}
		cl.mu.Unlock()
	}
	return sum
}

// wired is everything the endpoints put into a connection: ground truth
// for what the servers will receive (a send racing a close either
// fails, and is not counted, or buffers successfully, and is always
// drained).
func (w *world) wired() uint64 {
	return w.epochSum(w.extraWired, func(ep *epoch) uint64 { return ep.faulty.Stats().Wired })
}

// sunk is everything the endpoints were handed by a server.
func (w *world) sunk() uint64 {
	return w.epochSum(w.extraSunk, func(ep *epoch) uint64 { return ep.sunk.Load() })
}

// settleTimeout bounds each drain step; only a broken run waits it out.
const settleTimeout = 10 * time.Second

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

// settle drains the world and checks every steady-state invariant. The
// caller has stopped its sources. The drain itself is part of the
// contract: each step below must land exactly, or the conservation
// ledger is broken somewhere.
func (w *world) settle(where string) {
	// Release any reorder slot still holding a message hostage.
	for _, cl := range w.clients {
		if ep := cl.current(); ep != nil {
			ep.faulty.Flush()
		}
	}
	// In: everything wired into a connection must be ingested. wired is
	// re-read on every poll, not sampled once: an endpoint may commit its
	// own count after the server has counted the packet (the gateway's
	// Accepted does), and a stale sample would then never be reached.
	if !pollUntil(settleTimeout, func() bool { return w.stats().Received == w.wired() }) {
		w.violationf("%s: conservation: received %d != wired %d", where, w.stats().Received, w.wired())
	}
	// Trunk transit: entries handed to an up trunk — written or still
	// pending behind a write — must all be ingested by the receiving peer
	// once the pipes drain (the in-proc pipe delivers everything queued
	// before a close). Entries dropped on a down trunk or a failed write
	// leave remote-entries for trunk-dropped and never enter any
	// schedule, so this — and the ledger below — holds through
	// partitions too. Once it balances no trunk may still hold an entry
	// (polled with it: a writer counts its frame after the peer may have
	// ingested it).
	if len(w.peers) > 1 {
		if !pollUntil(settleTimeout, func() bool {
			t := w.trunks()
			return t.RemoteEntries == t.RecvEntries && t.PendingEntries == 0
		}) {
			if t := w.trunks(); t.RemoteEntries != t.RecvEntries {
				w.violationf("%s: trunk transit: remote-entries %d != recv-entries %d", where, t.RemoteEntries, t.RecvEntries)
			}
			for i, p := range w.peers {
				if n := p.srv.Cluster().PendingEntries; n != 0 {
					w.violationf("%s: trunk transit: peer %d holds %d pending entries", where, i, n)
				}
			}
		}
	}
	// Drain: the peer's ledger balances, so nothing is left in a
	// schedule, a send queue or a writer's popped batch.
	for i, p := range w.peers {
		if !p.srv.Quiesce(settleTimeout) {
			st := p.srv.Stats()
			w.violationf("%s: peer %d pipeline did not drain: entered %d, forwarded %d, queueDrops %d, abandoned %d, scheduled %d",
				where, i, st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned, st.Scheduled)
		}
	}
	// Out: every forwarded packet must arrive at an endpoint's sink.
	if !pollUntil(settleTimeout, func() bool { return w.sunk() == w.stats().Forwarded }) {
		w.violationf("%s: conservation: sunk %d != forwarded %d", where, w.sunk(), w.stats().Forwarded)
	}
	// Ledger: every schedule entry ended as forwarded, queue-dropped or
	// abandoned. It closes per peer — items enter the schedule at the
	// peer that fires them, so no cross-peer netting can hide an
	// imbalance — and therefore cluster-wide by summation.
	for i, p := range w.peers {
		st := p.srv.Stats()
		if st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned {
			w.violationf("%s: ledger peer %d: entered %d != forwarded %d + queueDrops %d + abandoned %d",
				where, i, st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
		}
		w.checkObsCounters(where, i, st)
	}
	w.checkFIFO(where)
}

// checkObsCounters cross-checks one peer's stats against the text its
// metrics registry renders — what /metrics and `stats` serve: the
// observability layer must agree with the pipeline it observes.
func (w *world) checkObsCounters(where string, i int, st core.ServerStats) {
	var text strings.Builder
	if err := w.peers[i].reg.WritePrometheus(&text); err != nil {
		w.violationf("%s: obs peer %d: render: %v", where, i, err)
		return
	}
	for _, v := range exposedCounterMismatches(text.String(), st) {
		w.violationf("%s: obs peer %d: %s", where, i, v)
	}
}

// exposedCounterMismatches returns one line per pipeline counter whose
// sample in the Prometheus text is missing or disagrees with st.
func exposedCounterMismatches(text string, st core.ServerStats) []string {
	exposed := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			exposed[name] = value
		}
	}
	var out []string
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
		if got, want := exposed[c.name], strconv.FormatUint(c.want, 10); got != want {
			out = append(out, fmt.Sprintf("%s exposes %q, stats say %s", c.name, got, want))
		}
	}
	return out
}

// checkFIFO verifies each client's received order is a subsequence of
// its owner's fire order projected onto that client. Epoch receive
// lists concatenate in epoch order: a new session only receives items
// fired after it registered, so the concatenation preserves order.
func (w *world) checkFIFO(where string) {
	for _, cl := range w.clients {
		received := receivedOrder(cl)
		fired := w.peers[cl.owner].fifo.perDst(cl.id)
		i := 0
		for _, k := range received {
			for i < len(fired) && fired[i] != k {
				i++
			}
			if i == len(fired) {
				w.violationf("%s: fifo: n%d received %v→%v flow=%d seq=%d out of schedule order",
					where, cl.id, k.Src, k.Relay, k.Flow, k.Seq)
				break
			}
			i++
		}
	}
}

func receivedOrder(cl *client) []record.DeliveryKey {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []record.DeliveryKey
	for _, ep := range cl.epochs {
		ep.mu.Lock()
		out = append(out, ep.recv...)
		ep.mu.Unlock()
	}
	return out
}

// close tears the world down and returns the run's outcome: every
// violation, its own two included. Leak check: with sessions joined, schedules
// drained by Close, and client receive loops exited, every pooled
// buffer must be back in the pool — a residue pins the exit path that
// forgot its Free — and the goroutine count must return to (near) the
// pre-run level; the small allowance covers runtime-internal goroutines
// that come and go. Scenarios defer it first, so it runs after their
// own deferred closes.
func (w *world) close() Outcome {
	for _, cl := range w.clients {
		cl.mu.Lock()
		ep := cl.cur
		cl.cur = nil
		cl.mu.Unlock()
		if ep != nil {
			ep.c.Close()
		}
	}
	for i, p := range w.peers {
		if p.srv == nil {
			continue // newWorld failed before this peer
		}
		w.stop(i)
	}
	if live := w.pool.Live(); live != 0 {
		w.violationf("teardown: mbuf leak: %d pooled buffers still live", live)
	}
	if !pollUntil(2*time.Second, func() bool { return runtime.NumGoroutine() <= w.base+3 }) {
		w.violationf("teardown: goroutine leak: %d now vs %d at start", runtime.NumGoroutine(), w.base)
	}
	o := Outcome{Seed: w.seed, Violations: w.violations, allocs: w.pool.Stats().Allocs}
	for _, p := range w.peers {
		p.fifo.mu.Lock()
		o.fired += len(p.fifo.entries)
		p.fifo.mu.Unlock()
	}
	return o
}

// The three helpers below corrupt the harness's own delivery ledger
// (never the emulator) so the self-tests can prove the shared checks
// detect violations deterministically.

// swapAdjacentDeliveries swaps two adjacent distinct entries in some
// epoch's receive order — entries whose keys each fired exactly once,
// so the swapped order provably cannot be a subsequence of the fire
// order. Returns false when no such pair exists (a nearly traffic-free
// run).
func (w *world) swapAdjacentDeliveries() bool {
	for _, cl := range w.clients {
		mult := make(map[record.DeliveryKey]int)
		for _, k := range w.peers[cl.owner].fifo.perDst(cl.id) {
			mult[k]++
		}
		cl.mu.Lock()
		for _, ep := range cl.epochs {
			ep.mu.Lock()
			for j := 0; j+1 < len(ep.recv); j++ {
				a, b := ep.recv[j], ep.recv[j+1]
				if a != b && mult[a] == 1 && mult[b] == 1 {
					ep.recv[j], ep.recv[j+1] = b, a
					ep.mu.Unlock()
					cl.mu.Unlock()
					return true
				}
			}
			ep.mu.Unlock()
		}
		cl.mu.Unlock()
	}
	return false
}

// fabricateDelivery appends a delivery that never happened; every
// downstream comparison must reject it.
func (w *world) fabricateDelivery() {
	cl := w.clients[0]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.epochs) == 0 {
		return
	}
	ep := cl.epochs[0]
	ep.mu.Lock()
	ep.recv = append(ep.recv, record.DeliveryKey{
		Src: radio.NodeID(2), Relay: cl.id, Flow: 0xFFFF, Seq: 0xFFFFFFFF,
	})
	ep.mu.Unlock()
}

func (w *world) firstNonEmptyEpoch() *epoch {
	for _, cl := range w.clients {
		cl.mu.Lock()
		for _, ep := range cl.epochs {
			ep.mu.Lock()
			n := len(ep.recv)
			ep.mu.Unlock()
			if n > 0 {
				cl.mu.Unlock()
				return ep
			}
		}
		cl.mu.Unlock()
	}
	return nil
}
