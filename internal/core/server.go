// Package core is PoEm itself: the central emulation server and the
// emulation client library (paper §3). The server accepts TCP/IP
// connections from clients, each mapped to a Virtual MANET Node (VMN),
// and forwards their packets according to the emulated scene —
// topology, multi-radio channel assignments, mobility and wireless link
// models. Real routing-protocol implementations run unmodified inside
// the clients; the emulator only decides who hears whom, when, and at
// what quality.
//
// The server's forwarding pipeline follows §3.2 step by step:
//
//  1. receive a packet from an emulation client
//  2. a scheduling goroutine resolves the destinations and the link
//     model from the scene's channel-indexed dispatch view — a
//     lock-free epoch snapshot (scene.Dispatch), so concurrent
//     sessions never convoy on the scene mutex
//  3. roll the link model's drop die; for kept packets compute
//     t_forward = t_receipt + delay + packet_size/bandwidth, where
//     t_receipt is the *client's* parallel timestamp
//  4. list the packet into the schedule of the shard owning the
//     destination (the core runs ServerConfig.Shards independent
//     pipelines; sessions are hashed onto shards by VMN id, see
//     shard.go)
//  5. each shard's scanning goroutine watches its own schedule
//  6. a sending goroutine ships the packet at t_forward — here one
//     dedicated writer per session draining a bounded FIFO queue, so
//     deliveries to a client leave in schedule order and a slow client
//     backpressures only itself (see sessionWriter / sendQueue)
//  7. recording goroutines log every packet and scene change
//
// The implementation is split by pipeline role: shard.go (the per-shard
// pipeline and the routing rule), registry.go (session lifecycle),
// ingest.go (steps 1–4), delivery.go (steps 5–6), lifecycle.go
// (Start/Serve/Close/Quiesce and the cross-shard aggregators). This
// file holds the configuration and assembly.
package core

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/vclock"
)

// ServerConfig configures an emulation server.
type ServerConfig struct {
	// Clock is the server's emulation clock — the unique reference all
	// clients synchronize against (§4.1). Required.
	Clock vclock.WaitClock
	// Scene is the emulated network state. Required.
	Scene *scene.Scene
	// Store receives packet and scene records; nil disables recording.
	Store *record.Store
	// Shards is how many independent pipeline shards the core runs:
	// each shard owns a slice of the session registry, its own schedule
	// and scanner, and its own obs instruments (see shard.go). Zero
	// selects DefaultShards() — min(GOMAXPROCS, 8). One shard preserves
	// the pre-sharding behavior exactly. Negative is an error.
	Shards int
	// Seed keys the link-model dice. Every loss and delay verdict is a
	// pure function of (Seed, packet, receiver) — the packet's source,
	// sequence number and clamped stamp, as its records carry them — so
	// a recorded drop can be re-derived from its record and the Seed
	// (linkmodel.Dice). The peers of a federation must share one Seed:
	// the ingesting peer rolls for every receiver, local or remote.
	Seed int64
	// TickStep is the mobility tick cadence; default 100 ms emulated.
	TickStep time.Duration
	// AutoCreateNodes makes Hello for an unknown VMN create it at the
	// origin with no radios (the operator configures it afterwards).
	// When false such clients are rejected.
	AutoCreateNodes bool
	// SerializeChannels models the shared half-duplex medium: at most
	// one transmission occupies a channel at a time, so concurrent
	// flows queue behind each other and contend for capacity. The
	// paper's base model schedules each packet independently (MAC
	// behaviour is §7 future work); this switch is that extension.
	SerializeChannels bool
	// SendQueueDepth bounds each session's outbound delivery queue.
	// Deliveries to a client leave through one writer goroutine in
	// schedule order; when a slow client lets its queue fill, the
	// oldest queued packet is discarded (counted in QueueDrops) so the
	// backpressure never reaches other sessions or the scanner. Zero
	// means DefaultSendQueueDepth.
	SendQueueDepth int
	// MaxStampSkew caps how far into the future a client's parallel
	// timestamp may run ahead of the server clock. A client with a
	// badly synced clock would otherwise plant packets arbitrarily far
	// ahead in the schedule; stamps beyond now+MaxStampSkew are clamped
	// (counted in StampClamped). Zero means DefaultMaxStampSkew;
	// negative disables the clamp.
	MaxStampSkew time.Duration

	// --- Observability (internal/obs) ---

	// Obs is the metrics registry the server's counters, gauges and
	// stage histograms land on. nil creates a private registry;
	// Server.Obs() returns whichever is in effect. Sharing one registry
	// across servers shares the counters (registration is idempotent).
	Obs *obs.Registry
	// ObsSampleEvery gates the per-packet stage timing and lifecycle
	// tracing: about one packet in every ObsSampleEvery is stage-timed
	// and leaves its stage events on the flight recorder (/trace). Which
	// packets is a hash of (source, sequence number, stamp)
	// (fidelity.Sampler), so every stage — and every peer of a
	// federation configured alike — picks the same ones. Counters always
	// run. 0 selects DefaultObsSampleEvery; negative disables sampling.
	ObsSampleEvery int

	// --- Real-time fidelity (internal/obs/fidelity) ---

	// RTTolerance is the real-time fidelity monitor's deadline-miss
	// tolerance, in emulation time: a delivery firing more than this
	// past its scheduled due time counts as a miss, and sustained misses
	// degrade the health state (see internal/obs/fidelity). Zero selects
	// fidelity.DefaultTolerance; negative is an error.
	RTTolerance time.Duration
	// RTWindow is how many fired deliveries close one health-evaluation
	// window (fidelity.Config.Window). Zero selects the default; tests
	// shrink it so state transitions trip quickly.
	RTWindow int

	// --- Federation (cluster.go) ---

	// Peers, when set, makes this server one member of a federated
	// cluster that jointly owns the scene: every VMN id maps to exactly
	// one owning peer (PeerIndex), clients register with their owner
	// (other peers redirect), and cross-peer deliveries ride persistent
	// trunks. nil — the default — is the exact single-server path; a
	// single-entry slice exercises the cluster code with no remote peers
	// (the digest-identity baseline).
	Peers []PeerSpec
	// Self is this server's index into Peers.
	Self int
	// ClusterID names the federation; trunks from a different cluster
	// are rejected at the handshake. Optional but strongly recommended
	// when several federations share a network.
	ClusterID string
	// Coordinator is the index of the peer whose scene is authoritative:
	// its mutations replicate to everyone else. Defaults to peer 0.
	Coordinator int
	// StatusEvery is the trunk heartbeat cadence (wall-clock); zero
	// selects DefaultStatusEvery.
	StatusEvery time.Duration
	// TrunkMinBackoff/TrunkMaxBackoff bound the trunk reconnect backoff
	// (transport.TrunkConfig); zeros select the transport defaults.
	TrunkMinBackoff, TrunkMaxBackoff time.Duration
}

// DefaultObsSampleEvery is the sampling period for stage timing and
// lifecycle tracing when ServerConfig.ObsSampleEvery is zero. At 1-in-64
// the sampled path's cost (a few time.Now reads, histogram adds and
// flight-recorder stores per stage, ~100–200 ns) amortizes to a low
// single-digit nanosecond overhead per delivery — inside the forwarding
// path's performance budget — while a steady flow still yields several
// samples per second.
const DefaultObsSampleEvery = 64

// DefaultMaxStampSkew is the future-stamp clamp applied when
// ServerConfig.MaxStampSkew is zero. One second comfortably exceeds any
// honest sync error (§4.1 bounds it by the transport's asymmetric
// delay) while keeping a hostile or broken clock from polluting the
// schedule.
const DefaultMaxStampSkew = time.Second

// MaxDefaultShards caps the automatic shard count: past a handful of
// shards the pipeline is no longer scanner-bound and more scanners only
// cost goroutines and timers.
const MaxDefaultShards = 8

// DefaultShards is the shard count used when ServerConfig.Shards is
// zero: min(GOMAXPROCS, 8).
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > MaxDefaultShards {
		n = MaxDefaultShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Server is the PoEm emulation server: a thin front (accept, register,
// route, aggregate) over ServerConfig.Shards independent forwarding
// pipelines.
type Server struct {
	cfg    ServerConfig
	shards []*shard
	ticker *vclock.Ticker

	// mu guards closed, ticker, and the wg.Add-vs-Wait ordering (see
	// register and Close). It is a front-door lock only: the packet hot
	// path — ingest, schedule push, deliver, write — never takes it.
	mu     sync.Mutex
	closed bool

	wg sync.WaitGroup

	chanMu   sync.Mutex // guards chanFree (SerializeChannels extension)
	chanFree map[radio.ChannelID]vclock.Time
	// chanFreeSweep is the map-size watermark past which the next
	// SerializeChannels update prunes expired channel-busy entries
	// (guarded by chanMu; see pruneChanFreeLocked).
	chanFreeSweep int

	// Observability. The counters live on the registry (exported through
	// Stats and /metrics); the stage histograms and the packet stage
	// events on the flight recorder cover only the packets sample picks
	// (a hash of the packet, so each stage decides on its own).
	obs    *obs.Registry
	sample fidelity.Sampler

	// fid is the real-time fidelity monitor: per-shard deadline
	// accounting, the health state machine, and the flight recorder.
	fid *fidelity.Monitor

	// cluster is the federation tier (cluster.go); nil on an
	// unclustered server, which keeps the legacy path untouched.
	cluster *cluster

	mReceived     *obs.Counter
	mForwarded    *obs.Counter
	mDropped      *obs.Counter
	mNoRoute      *obs.Counter
	mQueueDrops   *obs.Counter // includes drops from departed sessions
	mStampClamped *obs.Counter
	mAbandoned    *obs.Counter // scheduled deliveries that died with their session

	// deliverHook, when set, observes every schedule departure on the
	// firing shard's scanner goroutine, in fire order, before the
	// delivery is routed to its session (see SetDeliverHook).
	deliverHook atomic.Pointer[func(sched.Item)]

	hIngest     *obs.Histogram // wall ns: ingest entry → scheduled
	hResolve    *obs.Histogram // wall ns: ingest entry → dispatch+filter done
	hEnqueue    *obs.Histogram // wall ns: scanner hand-off to the send queue
	hSend       *obs.Histogram // wall ns: the writer's batch flush
	hDeliverLag *obs.Histogram // emulation ns: departure fired past its due time
	hFlushBatch *obs.Histogram // entries per session-writer flush (every batch)
	hFireBatch  *obs.Histogram // due deliveries drained per scanner lock cycle (every batch)
}

// ServerStats is a snapshot of server counters.
type ServerStats struct {
	Received  uint64 // packets received from clients
	Forwarded uint64 // packet deliveries sent to clients
	Dropped   uint64 // deliveries killed by the link model
	NoRoute   uint64 // packets with no reachable destination
	// QueueDrops counts deliveries discarded by the slow-client policy:
	// the addressee's bounded send queue was full, so the oldest queued
	// packet was dropped to make room (drop-oldest).
	QueueDrops uint64
	// StampClamped counts packets whose client timestamp ran further
	// than MaxStampSkew ahead of the server clock and was clamped.
	StampClamped uint64
	// Entered counts per-target deliveries listed into the forwarding
	// schedule (a broadcast reaching k survivors enters k times), and
	// Abandoned counts scheduled deliveries that died because their
	// session closed before the send completed. Together with Forwarded
	// and QueueDrops they close the conservation ledger:
	//   Entered == Forwarded + QueueDrops + Abandoned + still-queued.
	Entered   uint64
	Abandoned uint64
	Clients   int // connected sessions, summed across shards
	Scheduled int // schedule depth right now, summed across shards
	// Health is the server-wide real-time fidelity state ("healthy",
	// "degraded", "overrun").
	Health string
}

// NewServer validates the configuration and assembles a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Clock == nil {
		return nil, errors.New("core: ServerConfig.Clock is required")
	}
	if cfg.Scene == nil {
		return nil, errors.New("core: ServerConfig.Scene is required")
	}
	if cfg.Shards < 0 {
		return nil, errors.New("core: ServerConfig.Shards must not be negative")
	}
	if cfg.RTTolerance < 0 {
		return nil, errors.New("core: ServerConfig.RTTolerance must not be negative")
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards()
	}
	if err := validateCluster(cfg); err != nil {
		return nil, err
	}
	if cfg.TickStep <= 0 {
		cfg.TickStep = 100 * time.Millisecond
	}
	s := &Server{
		cfg:           cfg,
		chanFree:      make(map[radio.ChannelID]vclock.Time),
		chanFreeSweep: chanFreeMinSweep,
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(i, s)
	}
	s.instrument(cfg)
	if len(cfg.Peers) > 0 {
		s.cluster = newCluster(s, cfg)
	}
	if cfg.Store != nil {
		cfg.Scene.Subscribe(func(e scene.Event) {
			cfg.Store.AddScene(record.Scene{
				At: e.At, Node: e.Node, Op: e.Kind.String(),
				Detail: e.Detail, X: e.Pos.X, Y: e.Pos.Y,
			})
		})
	}
	// Push radio changes to the affected client so its protocol learns
	// about channel switches made on the server GUI. A change raises the
	// session's radios flag, which starts the session's writer if it has
	// none yet; the writer reads the current set from the scene and
	// sends it ahead of any delivery pushed after the change, so a
	// wedged client delays only its own notifications, never another
	// session's.
	cfg.Scene.Subscribe(func(e scene.Event) {
		if e.Kind != scene.RadiosChanged {
			return
		}
		if sess := s.shardOf(e.Node).lookup(e.Node); sess != nil {
			sess.q.notify()
		}
	})
	return s, nil
}

// instrument wires the server onto its metrics registry (creating a
// private one when the config supplies none) and registers
// every counter, gauge and stage histogram — including one instrument
// set per shard, named with an embedded shard label (obs.Labeled).
// Gauge callbacks run at scrape time only; the cross-shard aggregates
// visit one shard lock at a time.
func (s *Server) instrument(cfg ServerConfig) {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.obs = reg

	s.mReceived = reg.Counter("poem_received_total", "packets received from clients")
	s.mForwarded = reg.Counter("poem_forwarded_total", "packet deliveries sent to clients")
	s.mDropped = reg.Counter("poem_dropped_total", "deliveries killed by the link model")
	s.mNoRoute = reg.Counter("poem_noroute_total", "packets with no reachable destination")
	s.mQueueDrops = reg.Counter("poem_queue_drops_total", "deliveries discarded by the slow-client drop-oldest policy")
	s.mStampClamped = reg.Counter("poem_stamp_clamped_total", "client timestamps clamped by the MaxStampSkew horizon")
	reg.CounterFunc("poem_schedule_entries_total", "per-target deliveries listed into the forwarding schedule", s.entered)
	s.mAbandoned = reg.Counter("poem_abandoned_total", "scheduled deliveries that died with their session before sending")

	s.hIngest = reg.Histogram("poem_ingest_ns", "wall time from ingest entry to the packet being scheduled (sampled)")
	s.hResolve = reg.Histogram("poem_dispatch_ns", "wall time from ingest entry to dispatch view resolved and targets filtered (sampled)")
	s.hEnqueue = reg.Histogram("poem_enqueue_ns", "wall time the scanner spends handing a due packet to its session's send queue (sampled)")
	s.hSend = reg.Histogram("poem_send_ns", "wall time of the session writer's batch flush (sampled)")
	s.hDeliverLag = reg.Histogram("poem_deliver_lag_ns", "emulation time a departure fired past its scheduled due time (sampled)")
	s.hFlushBatch = reg.Histogram("poem_flush_batch_entries", "queue entries coalesced per session-writer flush")
	s.hFireBatch = reg.Histogram("poem_sched_fire_batch_entries", "due deliveries drained per scanner lock cycle")

	reg.Gauge("poem_clients", "connected sessions", func() float64 {
		n := 0
		for _, sh := range s.shards { // one shard lock at a time
			n += sh.clients()
		}
		return float64(n)
	})
	reg.Gauge("poem_scheduled", "forwarding schedule depth", func() float64 {
		n := 0
		for _, sh := range s.shards {
			n += sh.scanner.Pending()
		}
		return float64(n)
	})
	reg.Gauge("poem_clock_seconds", "server emulation clock", func() float64 {
		return float64(s.cfg.Clock.Now()) / 1e9
	})
	reg.Gauge("poem_shards", "independent pipeline shards", func() float64 {
		return float64(len(s.shards))
	})
	s.fid = fidelity.New(len(s.shards), fidelity.Config{
		Tolerance: cfg.RTTolerance,
		Window:    cfg.RTWindow,
	}, reg)
	// Timeline context for breach dumps: every dispatch-view publish
	// lands in the flight recorder with its size (a rebuild storm next
	// to a lag spike is a diagnosis, not a coincidence).
	rec := s.fid.Recorder()
	cfg.Scene.SetRebuildObserver(func(ch radio.ChannelID, rows int) {
		rec.Record(fidelity.EvViewRebuild, -1, int64(s.cfg.Clock.Now()), int64(ch), int64(rows))
	})
	for _, sh := range s.shards {
		sh := sh
		idx := strconv.Itoa(sh.idx)
		sh.entered = reg.Counter(obs.Labeled("poem_shard_entries_total", "shard", idx),
			"deliveries listed into this shard's schedule")
		reg.CounterFunc(obs.Labeled("poem_shard_dispatched_total", "shard", idx),
			"deliveries fired by this shard's scanner",
			func() uint64 { return sh.scanner.Stats().Dispatched })
		reg.CounterFunc(obs.Labeled("poem_shard_wakeups_total", "shard", idx),
			"times this shard's scanner woke from its clock wait",
			func() uint64 { return sh.scanner.Stats().Wakeups })
		reg.CounterFunc(obs.Labeled("poem_shard_spurious_wakeups_total", "shard", idx),
			"scanner wakeups that found nothing due",
			func() uint64 { return sh.scanner.Stats().SpuriousWakes })
		reg.CounterFunc(obs.Labeled("poem_shard_kicks_delivered_total", "shard", idx),
			"schedule pushes that woke this shard's sleeping scanner",
			func() uint64 { return sh.scanner.Stats().KicksDelivered })
		reg.CounterFunc(obs.Labeled("poem_shard_kicks_elided_total", "shard", idx),
			"schedule pushes that skipped the wake (scanner already due earlier)",
			func() uint64 { return sh.scanner.Stats().KicksElided })
		reg.Gauge(obs.Labeled("poem_shard_scheduled", "shard", idx),
			"this shard's schedule depth", func() float64 { return float64(sh.scanner.Pending()) })
		reg.Gauge(obs.Labeled("poem_shard_clients", "shard", idx),
			"sessions registered on this shard", func() float64 { return float64(sh.clients()) })
		reg.Gauge(obs.Labeled("poem_shard_queue_depth", "shard", idx),
			"summed send-queue depth of this shard's sessions", func() float64 { return float64(sh.queueDepth()) })
		reg.CounterFunc(obs.Labeled("poem_shard_fire_batches_total", "shard", idx),
			"batches this shard's scanner fired, one schedule-lock cycle each",
			func() uint64 { return sh.scanner.Stats().Batches })
		sh.fid = s.fid.Shard(sh.idx)
	}

	cfg.Scene.Instrument(reg)
	if cfg.Store != nil {
		cfg.Store.Instrument(reg)
	}

	every := cfg.ObsSampleEvery
	if every == 0 {
		every = DefaultObsSampleEvery
	}
	s.sample = fidelity.NewSampler(every)
}

// Obs returns the server's metrics registry.
func (s *Server) Obs() *obs.Registry { return s.obs }

// Fidelity returns the real-time fidelity monitor; it is never nil.
func (s *Server) Fidelity() *fidelity.Monitor { return s.fid }
