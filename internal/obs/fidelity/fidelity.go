// Package fidelity is PoEm's real-time fidelity monitor: it measures
// whether scheduled deliveries actually fire when they are due, and
// makes the emulator degrade *visibly* — not silently — when it falls
// behind the wall clock.
//
// The paper's central claim is real-time emulation: the scene is only
// faithful if the forwarding schedule keeps pace with the emulation
// clock. Scussel et al.'s real-time scheduler (the OMNeT++/INET
// emulation-mode lineage in PAPERS.md) judges an emulation run by its
// deadline-miss rate and drift, continuously — this package gives PoEm
// the same judgement, built from three pieces:
//
//  1. Deadline accounting (Shard.Record): every scanner batch fire
//     records fireTime − Due into a per-shard lag histogram, a
//     monotonic high-watermark, an EWMA drift estimate, and a
//     deadline-miss counter against a configurable tolerance. The
//     measurement reuses the batch fire timestamp the scanner already
//     read — zero extra clock reads, no allocation, no locks.
//  2. A health state machine (healthy → degraded → overrun) per shard
//     and server-wide, evaluated once per accounting window with
//     hysteresis so the state doesn't flap at a threshold boundary.
//  3. A lock-free flight recorder (recorder.go): a fixed ring of
//     recent structured events — batch fires with their lag, deadline
//     misses, queue drops, scanner window summaries, view rebuilds,
//     state transitions — dumped automatically when the server-wide
//     state worsens and exportable as chrome://tracing JSON.
//
// Concurrency contract: Shard.Record is called only from the owning
// scanner goroutine (single writer); everything a scraper reads is an
// atomic or a lock-free histogram, so /metrics and /healthz never
// block a scanner.
package fidelity

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// State is a health level. Ordering is meaningful: higher is worse,
// and the server-wide state is the maximum over shard states.
type State uint32

const (
	// Healthy: deadline misses below the degrade threshold; the
	// emulation is keeping real time.
	Healthy State = iota
	// Degraded: the miss rate or lag watermark crossed the degrade
	// threshold — results are still ordered correctly but timing
	// fidelity is suspect.
	Degraded
	// Overrun: the scheduler has decisively lost the clock; timing
	// results from this period should be discarded.
	Overrun
)

// String returns the state's lower-case name (the spelling used in
// /healthz, poemctl watch, and the poem_health gauge docs).
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Overrun:
		return "overrun"
	default:
		return "unknown"
	}
}

// Defaults. Tolerance is emulation time: at scale s, a wall-clock
// stall of d shows up as a lag of s×d.
const (
	// DefaultTolerance is the deadline-miss tolerance when the config
	// leaves it zero: a batch item firing more than this past its Due
	// counts as a miss. 20 ms emulated absorbs normal Go scheduler
	// jitter at scale 1 while still catching real stalls.
	DefaultTolerance = 20 * time.Millisecond
	// DefaultWindow is how many fired deliveries close one health
	// evaluation window.
	DefaultWindow = 256
	// DefaultRecorderSize is the flight-recorder ring capacity.
	DefaultRecorderSize = 4096
)

// The state machine's thresholds and the drift smoothing. They are
// constants, not Config fields: they belong to the monitor's
// calibration, not to a deployment.
const (
	// degradeMissRate / overrunMissRate are the per-window miss-rate
	// thresholds that escalate a shard to Degraded / Overrun.
	degradeMissRate = 0.01
	overrunMissRate = 0.25
	// degradeLagFactor / overrunLagFactor escalate on the window's max
	// observed lag reaching factor×Tolerance, so a single catastrophic
	// stall trips the state machine even when the miss *rate* is still
	// low (few deliveries, all of them very late).
	degradeLagFactor = 8
	overrunLagFactor = 64
	// hysteresis scales the thresholds a recovering shard must drop
	// below before the state steps back down (one level per clean
	// window): a shard degraded at a 1% miss rate recovers only once a
	// whole window stays under 0.5%.
	hysteresis = 0.5
	// driftAlpha is the EWMA smoothing factor for the drift estimate
	// (new = old + alpha×(lag−old)), applied once per batch.
	driftAlpha = 1.0 / 16
)

// Config tunes the monitor. The zero value selects every default.
type Config struct {
	// Tolerance is the per-delivery deadline-miss tolerance, in
	// emulation time. Zero selects DefaultTolerance.
	Tolerance time.Duration
	// Window is how many fired deliveries accumulate before the shard's
	// health state is re-evaluated. Zero selects DefaultWindow.
	Window int
}

func (c Config) withDefaults() Config {
	if c.Tolerance <= 0 {
		c.Tolerance = DefaultTolerance
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// Dump is a flight-recorder snapshot taken when the server-wide health
// state worsened.
type Dump struct {
	At     int64   `json:"at"` // emulation ns of the breach
	State  State   `json:"-"`  // the state entered
	Events []Event `json:"events"`
}

// Monitor owns the per-shard deadline accounting, the health state
// machine, and the flight recorder for one server.
type Monitor struct {
	cfg      Config
	tolNs    int64
	degLagNs int64 // window max-lag escalation thresholds
	ovrLagNs int64
	rec      *Recorder
	shards   []*Shard

	state        atomic.Uint32 // server-wide State (max over shards)
	breaches     atomic.Uint64
	lastDump     atomic.Pointer[Dump]
	onBreach     atomic.Pointer[func(State, *Dump)]
	onTransition atomic.Pointer[func(shard int, from, to State)]

	// mu serializes server-wide state recomputation: shard transitions
	// are rare (once per window at most) so a cold mutex is fine, and it
	// makes breach dumps atomic with the state change that caused them.
	mu sync.Mutex
}

// New builds a monitor for nshards pipeline shards and registers its
// instruments on reg (nil registers on a private registry — the monitor
// still works, it just isn't scraped).
func New(nshards int, cfg Config, reg *obs.Registry) *Monitor {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Monitor{
		cfg:      cfg,
		tolNs:    int64(cfg.Tolerance),
		degLagNs: int64(cfg.Tolerance) * degradeLagFactor,
		ovrLagNs: int64(cfg.Tolerance) * overrunLagFactor,
		rec:      NewRecorder(DefaultRecorderSize),
	}
	m.shards = make([]*Shard, nshards)
	for i := range m.shards {
		m.shards[i] = &Shard{m: m, idx: i}
	}
	m.instrument(reg)
	return m
}

// Tolerance returns the effective deadline-miss tolerance.
func (m *Monitor) Tolerance() time.Duration { return m.cfg.Tolerance }

// Shard returns the per-shard monitor for shard i.
func (m *Monitor) Shard(i int) *Shard { return m.shards[i] }

// Recorder returns the flight recorder, for subsystems that want to
// drop their own events into the ring (queue drops, view rebuilds).
func (m *Monitor) Recorder() *Recorder { return m.rec }

// State returns the server-wide health state.
func (m *Monitor) State() State { return State(m.state.Load()) }

// Breaches returns how many times the server-wide state has worsened.
func (m *Monitor) Breaches() uint64 { return m.breaches.Load() }

// LastDump returns the flight-recorder dump captured at the most recent
// breach, or nil if the server has never left Healthy.
func (m *Monitor) LastDump() *Dump { return m.lastDump.Load() }

// SetOnBreach installs fn to be called (on the scanner goroutine that
// closed the breaching window) whenever the server-wide state worsens,
// with the new state and the dump just captured. Keep it fast — log a
// line, signal a channel; the heavy artifact is already in LastDump.
func (m *Monitor) SetOnBreach(fn func(State, *Dump)) {
	if fn == nil {
		m.onBreach.Store(nil)
		return
	}
	m.onBreach.Store(&fn)
}

// SetOnTransition installs fn to be called on every health state
// transition: shard transitions carry the shard index, server-wide
// transitions carry shard -1. Unlike OnBreach it fires on recoveries
// too, so a subscriber tracking a gate (the real-traffic gateway's
// backpressure policy) can both engage and release it. The callback
// runs on the scanner goroutine that closed the transitioning window,
// outside the monitor's locks — keep it to a few atomic stores. One
// subscriber at a time; nil uninstalls.
func (m *Monitor) SetOnTransition(fn func(shard int, from, to State)) {
	if fn == nil {
		m.onTransition.Store(nil)
		return
	}
	m.onTransition.Store(&fn)
}

// Shards returns how many pipeline shards the monitor accounts — the
// shard-count a subscriber needs to map node IDs onto shard states.
func (m *Monitor) Shards() int { return len(m.shards) }

// notifyTransition fires the transition subscriber, if any. Called
// outside m.mu.
func (m *Monitor) notifyTransition(shard int, from, to State) {
	if fn := m.onTransition.Load(); fn != nil {
		(*fn)(shard, from, to)
	}
}

// instrument registers the monitor's metric families. Per-shard series
// carry a shard label (obs.Labeled); the lag histogram is a labeled
// histogram family, one series set per shard.
func (m *Monitor) instrument(reg *obs.Registry) {
	reg.Gauge("poem_health",
		"server-wide real-time health state (0=healthy 1=degraded 2=overrun)",
		func() float64 { return float64(m.state.Load()) })
	reg.CounterFunc("poem_health_breaches_total",
		"times the server-wide health state worsened (each captures a flight-recorder dump)",
		m.breaches.Load)
	reg.CounterFunc("poem_flight_recorder_events_total",
		"structured events written to the flight-recorder ring",
		func() uint64 { return m.rec.Recorded() })
	for _, sh := range m.shards {
		sh := sh
		idx := strconv.Itoa(sh.idx)
		sh.missed = reg.Counter(obs.Labeled("poem_shard_deadline_miss_total", "shard", idx),
			"deliveries fired more than the rt-tolerance past their due time")
		sh.lag = reg.Histogram(obs.Labeled("poem_shard_deadline_lag_ns", "shard", idx),
			"emulation ns between a batch's earliest due time and its fire time")
		reg.Gauge(obs.Labeled("poem_shard_deadline_watermark_ns", "shard", idx),
			"worst batch-fire lag observed since start (monotonic high-watermark)",
			func() float64 { return float64(sh.watermark.Load()) })
		reg.Gauge(obs.Labeled("poem_shard_deadline_drift_ns", "shard", idx),
			"EWMA of batch-fire lag (the shard's current drift behind the clock)",
			func() float64 { return sh.Drift() })
		reg.Gauge(obs.Labeled("poem_shard_health", "shard", idx),
			"shard real-time health state (0=healthy 1=degraded 2=overrun)",
			func() float64 { return float64(sh.state.Load()) })
	}
}

// refreshServer recomputes the server-wide state after a shard
// transition. A worsening captures a flight-recorder dump and fires the
// breach callback; recovery just lowers the gauge.
func (m *Monitor) refreshServer(nowNs int64) {
	m.mu.Lock()
	worst := Healthy
	for _, sh := range m.shards {
		if st := sh.State(); st > worst {
			worst = st
		}
	}
	cur := State(m.state.Load())
	if worst == cur {
		m.mu.Unlock()
		return
	}
	m.state.Store(uint32(worst))
	m.rec.Record(EvStateTransition, -1, nowNs, int64(cur), int64(worst))
	var dump *Dump
	if worst > cur {
		m.breaches.Add(1)
		dump = &Dump{At: nowNs, State: worst, Events: m.rec.Snapshot()}
		m.lastDump.Store(dump)
	}
	fn := m.onBreach.Load()
	m.mu.Unlock()
	m.notifyTransition(-1, cur, worst)
	if dump != nil && fn != nil {
		(*fn)(worst, dump)
	}
}

// Shard is one shard's deadline accounting and health state. Record is
// single-writer (the owning scanner goroutine); every other method is a
// lock-free read.
type Shard struct {
	m   *Monitor
	idx int

	// Window accumulators — plain fields, scanner-goroutine only.
	windowFired  int
	windowMissed int
	windowMaxLag int64

	// Shared with scrapers.
	fired     atomic.Uint64
	missed    *obs.Counter
	lag       *obs.Histogram
	watermark atomic.Int64
	drift     atomic.Uint64 // math.Float64bits
	state     atomic.Uint32
}

// Record accounts one batch fire: nowNs is the scanner's batch fire
// timestamp, lagNs is fireTime−earliestDue (clamped at 0), fired is the
// batch size and missed how many of its items were due more than the
// tolerance ago. It returns true when this call closed an accounting
// window (the caller may then attach a window-summary event). Must be
// called from the owning scanner goroutine only.
func (s *Shard) Record(nowNs, lagNs int64, fired, missed int) (windowClosed bool) {
	s.lag.Observe(time.Duration(lagNs))
	s.fired.Add(uint64(fired))
	if missed > 0 {
		s.missed.Add(uint64(missed))
	}
	if lagNs > s.watermark.Load() { // single writer: load-then-store is safe
		s.watermark.Store(lagNs)
	}
	d := math.Float64frombits(s.drift.Load())
	d += driftAlpha * (float64(lagNs) - d)
	s.drift.Store(math.Float64bits(d))

	s.m.rec.Record(EvBatchFire, s.idx, nowNs, lagNs, int64(fired))
	if missed > 0 {
		s.m.rec.Record(EvDeadlineMiss, s.idx, nowNs, lagNs, int64(missed))
	}

	s.windowFired += fired
	s.windowMissed += missed
	if lagNs > s.windowMaxLag {
		s.windowMaxLag = lagNs
	}
	if s.windowFired < s.m.cfg.Window {
		return false
	}
	rate := float64(s.windowMissed) / float64(s.windowFired)
	maxLag := s.windowMaxLag
	s.windowFired, s.windowMissed, s.windowMaxLag = 0, 0, 0

	cur := s.State()
	next := s.m.classify(cur, rate, maxLag)
	if next != cur {
		s.state.Store(uint32(next))
		s.m.rec.Record(EvStateTransition, s.idx, nowNs, int64(cur), int64(next))
		s.m.notifyTransition(s.idx, cur, next)
		s.m.refreshServer(nowNs)
	}
	return true
}

// classify maps one window's (miss rate, max lag) onto the next state.
// Escalation is immediate; de-escalation requires the window to clear
// the threshold scaled by hysteresis and steps down one level at a
// time, so a shard oscillating around a threshold parks in the worse
// state instead of flapping.
func (m *Monitor) classify(cur State, rate float64, maxLag int64) State {
	if rate >= overrunMissRate || maxLag >= m.ovrLagNs {
		return Overrun
	}
	if cur == Overrun &&
		(rate >= overrunMissRate*hysteresis || maxLag >= int64(float64(m.ovrLagNs)*hysteresis)) {
		return Overrun // not clean enough to step down yet
	}
	if rate >= degradeMissRate || maxLag >= m.degLagNs {
		return Degraded
	}
	if cur >= Degraded &&
		(rate >= degradeMissRate*hysteresis || maxLag >= int64(float64(m.degLagNs)*hysteresis)) {
		return Degraded
	}
	if cur == Overrun {
		return Degraded // clean window: step down one level, not two
	}
	return Healthy
}

// State returns the shard's health state.
func (s *Shard) State() State { return State(s.state.Load()) }

// Fired returns how many deliveries this shard has accounted.
func (s *Shard) Fired() uint64 { return s.fired.Load() }

// Missed returns this shard's deadline-miss count.
func (s *Shard) Missed() uint64 { return s.missed.Load() }

// Watermark returns the worst batch-fire lag seen since start.
func (s *Shard) Watermark() time.Duration {
	return time.Duration(s.watermark.Load())
}

// Drift returns the EWMA drift estimate in nanoseconds.
func (s *Shard) Drift() float64 {
	return math.Float64frombits(s.drift.Load())
}

// Snapshot is a point-in-time copy of one shard's fidelity figures.
type Snapshot struct {
	Shard     int           `json:"shard"`
	State     string        `json:"state"`
	Fired     uint64        `json:"fired"`
	Misses    uint64        `json:"misses"`
	MissRate  float64       `json:"miss_rate"`
	LagP50    time.Duration `json:"lag_p50_ns"`
	LagP99    time.Duration `json:"lag_p99_ns"`
	Watermark time.Duration `json:"watermark_ns"`
	Drift     time.Duration `json:"drift_ns"`
}

// Snapshot returns the shard's current fidelity figures.
func (s *Shard) Snapshot() Snapshot {
	fired := s.fired.Load()
	misses := s.missed.Load()
	rate := 0.0
	if fired > 0 {
		rate = float64(misses) / float64(fired)
	}
	return Snapshot{
		Shard:     s.idx,
		State:     s.State().String(),
		Fired:     fired,
		Misses:    misses,
		MissRate:  rate,
		LagP50:    time.Duration(s.lag.Quantile(0.5)),
		LagP99:    time.Duration(s.lag.Quantile(0.99)),
		Watermark: s.Watermark(),
		Drift:     time.Duration(s.Drift()),
	}
}

// Snapshots returns every shard's figures, in shard order.
func (m *Monitor) Snapshots() []Snapshot {
	out := make([]Snapshot, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.Snapshot()
	}
	return out
}
