// Package chaos is the repo's deterministic fault-injection harness:
// seeded adversarial scenarios against a full in-process emulation
// (server + multi-radio clients), with end-to-end invariants checked at
// every quiesce point.
//
// The paper's claims this pins down are exactly the ones unit tests on
// happy paths cannot: consistent real-time scene views under concurrent
// mutation (§3.1), accurate client-side recording under loss and
// disconnects (§3.2), and channel-indexed updates that never touch
// other channels (§4). Distributed emulators classically lose fidelity
// in precisely these corners, so every future refactor of the pipeline
// is re-judged by seeded adversarial runs rather than a handful of
// hand-written cases.
//
// Design: schedule generation is pure — GenerateSchedule(cfg) derives
// the whole event sequence (traffic bursts, scene mutations, client
// kills and reconnects, transport impairment toggles, quiesce points,
// a federation's partitions and heals) from cfg.Seed alone, and
// Schedule.Digest() hashes its textual form. The same seed therefore
// always produces a byte-identical event log, and a failing run is
// reproduced by rerunning its seed. Execution is intentionally
// nondeterministic (real goroutines, real races); the invariants must
// hold on every execution of every schedule.
//
// Invariants checked at each quiesce point:
//
//  1. packet conservation — wired == received, trunk transit exact, and
//     every schedule entry ends as exactly one of forwarded /
//     queue-dropped / abandoned, cross-checked against the obs registry
//     counters (world.go, settle — every scenario);
//  2. per-session FIFO — each client's received order is a subsequence
//     of the scanner's fire order projected onto that client (world.go,
//     settle);
//  3. view-rebuild isolation — a window that touched channels K never
//     bumps ViewRebuilds of any channel outside K on any peer (a quiet
//     quarantine channel pins the strongest form; run.go);
//  4. emulation-clock monotonicity — a client's stamp clock never runs
//     backwards across resyncs (run.go);
//  5. record/replay consistency — at the end of the run the recording's
//     delivered-packet multiset (summed over the peers' stores) equals
//     what the clients actually received, survives a Save/Load round
//     trip, and replays to the same totals and final node positions
//     (invariants.go). A federation adds replication: every follower
//     applies the coordinator's stream by each quiesce and holds its
//     scene at the end, and no trunk drops an entry while all are up.
//
// Teardown (world.go, close) adds the last two of world's eight: every
// pooled buffer back in the pool, and no leaked goroutines.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
)

// Config parameterizes one chaos scenario. The zero value plus a seed
// is a sensible run; Normalize fills the rest.
type Config struct {
	// Seed is the single source of schedule randomness.
	Seed int64
	// Clients is the number of emulation clients (VMN ids 1..Clients).
	Clients int
	// Channels is how many radio channels traffic spreads over (1..Channels).
	Channels int
	// Events is the number of scheduled events between setup and the
	// final quiesce (quiesce points are inserted on top).
	Events int
	// Scale compresses time: the server clock runs Scale× wall time.
	Scale float64
	// QueueDepth bounds each session's outbound queue; small values
	// exercise the drop-oldest policy.
	QueueDepth int
	// Shards is the server's pipeline shard count. It is an execution
	// parameter, deliberately EXCLUDED from Lines()/Digest(): the same
	// seed must produce the same schedule at every shard count, so one
	// digest names one scenario and the invariants are judged across
	// shard counts on identical event logs.
	Shards int
	// RTTolerance is the real-time fidelity monitor's deadline-miss
	// tolerance (core.ServerConfig.RTTolerance; 0 = default). Like
	// Shards it is an execution parameter excluded from the digest: how
	// strictly the pipeline's timeliness is judged must never perturb
	// the scenario, so one seed hashes identically at every tolerance.
	RTTolerance time.Duration
	// Peers selects the federation tier: 0 runs the legacy unclustered
	// server, 1 runs a single-peer cluster — the cluster routing code
	// live on every packet, with no trunks or remote peers to route to.
	// Between those two it is an execution parameter EXCLUDED from the
	// digest: one seed must hash and execute identically either way,
	// which is the acceptance check that federation hides completely
	// behind the single-process default. Peers ≥ 2 runs a federation,
	// peer 0 coordinating, and adds partitions and heals to the schedule
	// (and the peer count to its config line).
	Peers int
	// Sabotage injects a deliberate harness-side corruption so the
	// invariant checkers can be shown to catch violations (self-test).
	Sabotage Sabotage
}

// Sabotage selects an intentional corruption of the harness's own
// ledger, used by the self-test to prove the invariant checks have
// teeth. The emulator under test is untouched.
type Sabotage uint8

const (
	// SabotageNone runs the scenario honestly.
	SabotageNone Sabotage = iota
	// SabotageFlipSeq corrupts one delivered packet's sequence number in
	// the harness ledger, which must surface as a record/replay multiset
	// mismatch.
	SabotageFlipSeq
	// SabotageSwapOrder swaps two adjacent entries in one client's
	// received order, which must surface as a FIFO violation.
	SabotageSwapOrder
)

// Normalize fills zero fields with defaults and returns the result.
func (c Config) Normalize() Config {
	if c.Clients <= 0 {
		c.Clients = 5
	}
	if c.Channels <= 0 {
		c.Channels = 3
	}
	if c.Events <= 0 {
		c.Events = 60
	}
	if c.Scale <= 0 {
		c.Scale = 200
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Peers < 0 {
		c.Peers = 0
	}
	return c
}

// Region is the scene area nodes are placed and walk in.
var Region = geom.R(0, 0, 200, 200)

// The quarantine channel hosts two static non-client nodes and an
// explicit link model, and no scheduled event ever targets it: its
// ViewRebuilds count must stay frozen after setup, pinning the paper's
// channel-isolation property in its strongest form.
const (
	QuarantineChannel radio.ChannelID = 999
	quarantineNodeA   radio.NodeID    = 900
	quarantineNodeB   radio.NodeID    = 901
)

// EventKind enumerates the scheduled chaos events.
type EventKind uint8

const (
	// EvBurst sends Count packets from Node to Dst on Channel.
	EvBurst EventKind = iota
	// EvSleep idles the schedule for Sleep wall time.
	EvSleep
	// EvSetRange shrinks or grows Node's radio range on Channel.
	EvSetRange
	// EvSwitchChannel retunes Node's radio from Channel to NewCh.
	EvSwitchChannel
	// EvMoveNode drags Node to (X, Y), detaching any walker.
	EvMoveNode
	// EvSetMobility attaches a random-walk walker to Node.
	EvSetMobility
	// EvClearMobility freezes Node in place.
	EvClearMobility
	// EvPause stops mobility ticking; EvResume restarts it.
	EvPause
	EvResume
	// EvImpair sets Node's transport drop/dup/reorder probabilities.
	EvImpair
	// EvClearImpair restores Node's transport to clean.
	EvClearImpair
	// EvKill hard-closes Node's connection (no Bye).
	EvKill
	// EvReconnect re-dials a killed Node under the same VMN id.
	EvReconnect
	// EvQuiesce drains the pipeline and checks every invariant.
	EvQuiesce
	// EvPartition cuts both trunk directions between Peer and every
	// other peer; EvHeal restores them.
	EvPartition
	EvHeal
)

var evNames = map[EventKind]string{
	EvBurst: "burst", EvSleep: "sleep", EvSetRange: "range",
	EvSwitchChannel: "switch", EvMoveNode: "move", EvSetMobility: "walk",
	EvClearMobility: "freeze", EvPause: "pause", EvResume: "resume",
	EvImpair: "impair", EvClearImpair: "clear", EvKill: "kill",
	EvReconnect: "reconnect", EvQuiesce: "quiesce",
	EvPartition: "partition", EvHeal: "heal",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if n, ok := evNames[k]; ok {
		return n
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one scheduled chaos action. Which fields are meaningful
// depends on Kind; unused fields are zero so the textual form is stable.
type Event struct {
	Kind    EventKind
	Node    radio.NodeID
	Dst     radio.NodeID // EvBurst: destination (radio.Broadcast or concrete)
	Channel radio.ChannelID
	NewCh   radio.ChannelID // EvSwitchChannel: target channel
	Count   int             // EvBurst: packets
	Flow    uint16          // EvBurst: flow label (unique per burst)
	Range   float64         // EvSetRange
	X, Y    float64         // EvMoveNode
	Drop    float64         // EvImpair
	Dup     float64
	Reorder float64
	Sleep   time.Duration // EvSleep (wall time)
	Peer    int           // EvPartition, EvHeal: the peer cut off
	// Touched lists, for EvQuiesce, every channel the window since the
	// previous quiesce may legitimately have rebuilt (mutation targets
	// plus the channels of any node that was mobile). Channels outside
	// the list must show unchanged ViewRebuilds.
	Touched []radio.ChannelID
}

// String renders the event in the compact one-line form the digest and
// failure logs use.
func (e Event) String() string {
	switch e.Kind {
	case EvBurst:
		return fmt.Sprintf("burst n%d->%d ch%d flow%d x%d", e.Node, e.Dst, e.Channel, e.Flow, e.Count)
	case EvSleep:
		return fmt.Sprintf("sleep %v", e.Sleep)
	case EvSetRange:
		return fmt.Sprintf("range n%d ch%d=%.0f", e.Node, e.Channel, e.Range)
	case EvSwitchChannel:
		return fmt.Sprintf("switch n%d ch%d->ch%d", e.Node, e.Channel, e.NewCh)
	case EvMoveNode:
		return fmt.Sprintf("move n%d (%.0f,%.0f)", e.Node, e.X, e.Y)
	case EvSetMobility:
		return fmt.Sprintf("walk n%d", e.Node)
	case EvClearMobility:
		return fmt.Sprintf("freeze n%d", e.Node)
	case EvPause:
		return "pause"
	case EvResume:
		return "resume"
	case EvImpair:
		return fmt.Sprintf("impair n%d drop%.2f dup%.2f reord%.2f", e.Node, e.Drop, e.Dup, e.Reorder)
	case EvClearImpair:
		return fmt.Sprintf("clear n%d", e.Node)
	case EvKill:
		return fmt.Sprintf("kill n%d", e.Node)
	case EvReconnect:
		return fmt.Sprintf("reconnect n%d", e.Node)
	case EvQuiesce:
		chs := make([]string, len(e.Touched))
		for i, ch := range e.Touched {
			chs[i] = fmt.Sprintf("ch%d", ch)
		}
		return "quiesce touched[" + strings.Join(chs, " ") + "]"
	case EvPartition, EvHeal:
		return fmt.Sprintf("%v p%d", e.Kind, e.Peer)
	default:
		return e.Kind.String()
	}
}

// NodeSetup places one scene node before the run starts.
type NodeSetup struct {
	ID     radio.NodeID
	Pos    geom.Vec2
	Radios []radio.Radio
}

func (n NodeSetup) String() string {
	rs := make([]string, len(n.Radios))
	for i, r := range n.Radios {
		rs[i] = fmt.Sprintf("ch%d/%.0f", r.Channel, r.Range)
	}
	return fmt.Sprintf("node n%d (%.0f,%.0f) [%s]", n.ID, n.Pos.X, n.Pos.Y, strings.Join(rs, " "))
}

// Schedule is one fully generated scenario: the initial scene plus the
// event sequence. It is a pure function of its Config.
type Schedule struct {
	Cfg    Config
	Setup  []NodeSetup
	Events []Event
}

// Lines renders the schedule as its canonical event log.
func (s Schedule) Lines() []string {
	out := make([]string, 0, len(s.Setup)+len(s.Events)+1)
	cfg := fmt.Sprintf("config seed=%d clients=%d channels=%d events=%d sabotage=%d",
		s.Cfg.Seed, s.Cfg.Clients, s.Cfg.Channels, s.Cfg.Events, s.Cfg.Sabotage)
	if s.Cfg.Peers >= 2 {
		cfg += fmt.Sprintf(" peers=%d", s.Cfg.Peers)
	}
	out = append(out, cfg)
	for _, n := range s.Setup {
		out = append(out, n.String())
	}
	for i, e := range s.Events {
		out = append(out, fmt.Sprintf("%3d %s", i, e.String()))
	}
	return out
}

// Digest returns the SHA-256 hex digest of the canonical event log.
// Determinism acceptance: generating the same seed twice must yield
// byte-identical digests.
func (s Schedule) Digest() string {
	h := sha256.New()
	for _, l := range s.Lines() {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// genState tracks, during generation, the scene/session state the
// generator needs to emit only valid events and to compute each quiesce
// window's touched-channel set.
type genState struct {
	chansOf  map[radio.NodeID][]radio.ChannelID
	alive    map[radio.NodeID]bool
	mobile   map[radio.NodeID]bool
	impaired map[radio.NodeID]bool
	paused   bool
	touched  map[radio.ChannelID]struct{}
	nextFlow uint16
}

func (g *genState) touch(chs ...radio.ChannelID) {
	for _, ch := range chs {
		g.touched[ch] = struct{}{}
	}
}

// markMobiles adds every mobile node's channels to the touched set —
// ticks rebuild them continuously, so as long as a walker is attached
// its channels are legitimately rebuilt in every window.
func (g *genState) markMobiles() {
	for id, m := range g.mobile {
		if m {
			g.touch(g.chansOf[id]...)
		}
	}
}

func (g *genState) takeTouched() []radio.ChannelID {
	g.markMobiles()
	out := make([]radio.ChannelID, 0, len(g.touched))
	for ch := range g.touched {
		out = append(out, ch)
	}
	slices.Sort(out) // map order is random; the digest needs a canonical one
	g.touched = make(map[radio.ChannelID]struct{})
	return out
}

// ids lists the clients that are alive, or with alive false the dead.
func (g *genState) ids(cfg Config, alive bool) []radio.NodeID {
	out := make([]radio.NodeID, 0, cfg.Clients)
	for i := 1; i <= cfg.Clients; i++ {
		if g.alive[radio.NodeID(i)] == alive {
			out = append(out, radio.NodeID(i))
		}
	}
	return out
}

// GenerateSchedule derives the complete scenario from cfg.Seed. It is
// pure: no clocks, no goroutines, no global state — calling it twice
// with the same config yields identical schedules.
func GenerateSchedule(cfg Config) Schedule {
	cfg = cfg.Normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &genState{
		chansOf:  make(map[radio.NodeID][]radio.ChannelID),
		alive:    make(map[radio.NodeID]bool),
		mobile:   make(map[radio.NodeID]bool),
		impaired: make(map[radio.NodeID]bool),
		touched:  make(map[radio.ChannelID]struct{}),
	}

	setup := make([]NodeSetup, 0, cfg.Clients+2)
	for i := 1; i <= cfg.Clients; i++ {
		id := radio.NodeID(i)
		pos := geom.V(20+rng.Float64()*160, 20+rng.Float64()*160)
		ch1 := radio.ChannelID(1 + (i-1)%cfg.Channels)
		radios := []radio.Radio{{Channel: ch1, Range: 150 + rng.Float64()*100}}
		chans := []radio.ChannelID{ch1}
		if i%2 == 0 && cfg.Channels > 1 {
			// Even clients are multi-radio: a second radio on the next
			// channel, per the paper's multi-radio VMN model.
			ch2 := radio.ChannelID(1 + i%cfg.Channels)
			if ch2 != ch1 {
				radios = append(radios, radio.Radio{Channel: ch2, Range: 150 + rng.Float64()*100})
				chans = append(chans, ch2)
			}
		}
		setup = append(setup, NodeSetup{ID: id, Pos: pos, Radios: radios})
		g.chansOf[id] = chans
		g.alive[id] = true
	}
	// The quarantine pair: static, far from the action, own channel.
	setup = append(setup,
		NodeSetup{ID: quarantineNodeA, Pos: geom.V(500, 500),
			Radios: []radio.Radio{{Channel: QuarantineChannel, Range: 100}}},
		NodeSetup{ID: quarantineNodeB, Pos: geom.V(540, 500),
			Radios: []radio.Radio{{Channel: QuarantineChannel, Range: 100}}},
	)

	var fed *fedGen
	if cfg.Peers >= 2 {
		fed = &fedGen{rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eedfed)), peers: cfg.Peers, cut: -1}
	}
	pick := func(ids []radio.NodeID) radio.NodeID { return ids[rng.Intn(len(ids))] }
	events := make([]Event, 0, cfg.Events+cfg.Events/10+2)
	untilQuiesce := 8 + rng.Intn(8)
	for len(events) < cfg.Events {
		if untilQuiesce == 0 {
			events = fed.heal(g, events)
			events = append(events, Event{Kind: EvQuiesce, Touched: g.takeTouched()})
			untilQuiesce = 8 + rng.Intn(8)
			continue
		}
		untilQuiesce--
		if fed != nil && fed.cut < 0 && fed.rng.Intn(12) == 0 {
			events = fed.open(g, cfg, events)
		}
		alive := g.ids(cfg, true)
		dead := g.ids(cfg, false)
		roll := rng.Intn(100)
		var ev Event
		switch {
		case roll < 34: // burst
			n := pick(alive)
			chans := g.chansOf[n]
			ch := chans[rng.Intn(len(chans))]
			dst := radio.Broadcast
			if rng.Intn(2) == 0 {
				// Unicast to any other node — possibly dead (its session
				// is gone but the scene node remains, so deliveries must
				// be abandoned cleanly) or off-channel (no route).
				for {
					dst = radio.NodeID(1 + rng.Intn(cfg.Clients))
					if dst != n {
						break
					}
				}
			}
			g.nextFlow++
			ev = Event{Kind: EvBurst, Node: n, Dst: dst, Channel: ch,
				Flow: g.nextFlow, Count: 4 + rng.Intn(16)}
		case roll < 42: // sleep
			ev = Event{Kind: EvSleep, Sleep: time.Duration(1+rng.Intn(3)) * time.Millisecond}
		case roll < 50: // range change
			n := radio.NodeID(1 + rng.Intn(cfg.Clients))
			chans := g.chansOf[n]
			ch := chans[rng.Intn(len(chans))]
			g.touch(ch)
			ev = Event{Kind: EvSetRange, Node: n, Channel: ch, Range: 60 + rng.Float64()*190}
		case roll < 57: // channel switch
			n := radio.NodeID(1 + rng.Intn(cfg.Clients))
			chans := g.chansOf[n]
			idx := rng.Intn(len(chans))
			old := chans[idx]
			var to radio.ChannelID
			for {
				to = radio.ChannelID(1 + rng.Intn(cfg.Channels))
				if to != old {
					break
				}
			}
			if cfg.Channels == 1 {
				ev = Event{Kind: EvSleep, Sleep: time.Millisecond}
				break
			}
			already := false
			for _, c := range chans {
				if c == to {
					already = true
				}
			}
			if already {
				// Retuning onto a channel the node is already on would
				// collapse two radios; treat as a no-op sleep instead.
				ev = Event{Kind: EvSleep, Sleep: time.Millisecond}
				break
			}
			// The retune executes as a full SetRadios, which rebuilds every
			// channel in the node's old and new radio sets — not just the
			// switched pair — so the whole set counts as touched.
			g.touch(chans...)
			g.touch(to)
			chans[idx] = to
			ev = Event{Kind: EvSwitchChannel, Node: n, Channel: old, NewCh: to}
		case roll < 64: // drag
			n := radio.NodeID(1 + rng.Intn(cfg.Clients))
			g.touch(g.chansOf[n]...)
			g.mobile[n] = false // dragging detaches the walker
			ev = Event{Kind: EvMoveNode, Node: n,
				X: 20 + rng.Float64()*160, Y: 20 + rng.Float64()*160}
		case roll < 70: // attach walker
			n := radio.NodeID(1 + rng.Intn(cfg.Clients))
			g.mobile[n] = true
			ev = Event{Kind: EvSetMobility, Node: n}
		case roll < 74: // detach walker
			n := radio.NodeID(1 + rng.Intn(cfg.Clients))
			if !g.mobile[n] {
				ev = Event{Kind: EvSleep, Sleep: time.Millisecond}
				break
			}
			g.touch(g.chansOf[n]...) // final walker moves may still land
			g.mobile[n] = false
			ev = Event{Kind: EvClearMobility, Node: n}
		case roll < 78: // pause/resume toggle
			if g.paused {
				g.paused = false
				ev = Event{Kind: EvResume}
			} else {
				g.paused = true
				ev = Event{Kind: EvPause}
			}
		case roll < 86: // impair
			n := pick(alive)
			g.impaired[n] = true
			ev = Event{Kind: EvImpair, Node: n,
				Drop:    float64(rng.Intn(16)) / 100,
				Dup:     float64(rng.Intn(16)) / 100,
				Reorder: float64(rng.Intn(21)) / 100}
		case roll < 90: // clear impairment
			n := pick(alive)
			if !g.impaired[n] {
				ev = Event{Kind: EvSleep, Sleep: time.Millisecond}
				break
			}
			g.impaired[n] = false
			ev = Event{Kind: EvClearImpair, Node: n}
		case roll < 95: // kill
			if len(alive) < 2 {
				ev = Event{Kind: EvSleep, Sleep: time.Millisecond}
				break
			}
			n := pick(alive)
			if fed != nil && fed.cut >= 0 && fed.s == n {
				// The probe's sender lives until the heal probes again.
				ev = Event{Kind: EvSleep, Sleep: time.Millisecond}
				break
			}
			g.alive[n] = false
			g.impaired[n] = false
			ev = Event{Kind: EvKill, Node: n}
		default: // reconnect
			if len(dead) == 0 {
				ev = Event{Kind: EvSleep, Sleep: time.Millisecond}
				break
			}
			n := pick(dead)
			g.alive[n] = true
			ev = Event{Kind: EvReconnect, Node: n}
		}
		events = append(events, ev)
	}
	// Revive everyone before the final drain so the closing window also
	// exercises reconnect paths deterministically, then quiesce.
	for _, n := range g.ids(cfg, false) {
		g.alive[n] = true
		events = append(events, Event{Kind: EvReconnect, Node: n})
	}
	if g.paused {
		events = append(events, Event{Kind: EvResume})
		g.paused = false
	}
	if fed != nil && !fed.opened {
		events = fed.open(g, cfg, events)
	}
	events = fed.heal(g, events)
	events = append(events, Event{Kind: EvQuiesce, Touched: g.takeTouched()})
	return Schedule{Cfg: cfg, Setup: setup, Events: events}
}

// fedGen draws a federation's partitions from a stream of its own, so a
// schedule at Peers ≤ 1 draws exactly what it always did. A partition
// opens before any event with odds 1 in 12 and heals just before the
// window's quiesce; every schedule opens at least one.
type fedGen struct {
	rng    *rand.Rand
	peers  int
	cut    int          // the peer cut off, -1 while none is
	s, d   radio.NodeID // the probe pair across it
	opened bool
}

// open cuts off the peer of s or of d — a live client and one owned by
// another peer — and probes the cut from s to d: every packet the link
// keeps must drop on a down trunk. With every client on one peer nothing
// opens.
func (f *fedGen) open(g *genState, cfg Config, events []Event) []Event {
	alive := g.ids(cfg, true)
	s := alive[f.rng.Intn(len(alive))]
	var ds []radio.NodeID
	for d := radio.NodeID(1); int(d) <= cfg.Clients; d++ {
		if core.PeerIndex(d, f.peers) != core.PeerIndex(s, f.peers) {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return events
	}
	f.s, f.d, f.opened = s, ds[f.rng.Intn(len(ds))], true
	events, probe := f.probe(g, events)
	f.cut = core.PeerIndex([]radio.NodeID{f.s, f.d}[f.rng.Intn(2)], f.peers)
	return append(events, Event{Kind: EvPartition, Peer: f.cut}, probe)
}

// heal closes the open partition, if any, and probes the healed cut with
// the same pair: now every packet the link keeps must arrive.
func (f *fedGen) heal(g *genState, events []Event) []Event {
	if f == nil || f.cut < 0 {
		return events
	}
	events, probe := f.probe(g, events)
	events = append(events, Event{Kind: EvHeal, Peer: f.cut}, probe)
	f.cut = -1
	return events
}

// probe readies the scene for a burst from s to d and returns the burst:
// d is revived and, if the two share no channel, retuned onto one of
// s's, and s's range there is set past Region's diagonal, so d hears
// every packet the link keeps. The partition or heal goes in between,
// where the runner lets replication catch up.
func (f *fedGen) probe(g *genState, events []Event) ([]Event, Event) {
	if !g.alive[f.d] {
		g.alive[f.d] = true
		events = append(events, Event{Kind: EvReconnect, Node: f.d})
	}
	chans, ch := g.chansOf[f.d], g.chansOf[f.s][0]
	for _, c := range g.chansOf[f.s] {
		if slices.Contains(chans, c) {
			ch = c
		}
	}
	if !slices.Contains(chans, ch) {
		g.touch(chans...) // a full SetRadios, as in the switch draw
		events = append(events, Event{Kind: EvSwitchChannel, Node: f.d, Channel: chans[0], NewCh: ch})
		chans[0] = ch
	}
	g.touch(ch)
	g.nextFlow++
	return append(events, Event{Kind: EvSetRange, Node: f.s, Channel: ch, Range: 300}),
		Event{Kind: EvBurst, Node: f.s, Dst: f.d, Channel: ch, Flow: g.nextFlow, Count: 8 + f.rng.Intn(8)}
}
