package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/vclock"
)

// runConfig is one pass over one workload.
type runConfig struct {
	W         workload
	T         timing
	Seed      int64
	Traced    bool
	SetupOnly bool      // build the rig, report set-up time, tear down
	Start     time.Time // when the process began: set-up is timed from here
	TraceOut  string    // traced pass: chrome-trace file to write ("" = none)
}

// check is one correctness check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// passResult is what one pass reports (a child process prints it as
// JSON on its last line).
type passResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Checks    []check            `json:"checks"`
}

func (p *passResult) correct() bool {
	for _, c := range p.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (p *passResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	p.Checks = append(p.Checks, c)
}

// sender is one flow's generator goroutine.
type sender struct {
	m    *meter
	f    int
	c    *core.Client
	spec flowSpec
	wait time.Duration

	window *flowWindow

	sent, errs uint64 // read after the goroutine has exited
	callNs     hist   // traced: duration of each send call
	genLag     hist   // open loop: actual minus intended send instant
}

func (s *sender) send(buf []byte, seq uint32) {
	size := s.spec.Sizes[seq%sizeSeqLen]
	t0 := int64(s.m.clk.Now())
	putHeader(buf, t0, seq)
	var sp *span
	if s.m.traced && seq%spanEvery == 0 {
		sp = &s.m.spans[s.f][spanSlot(seq)]
		sp.fire.Store(0)
		sp.arr.Store(0)
		sp.sendEnd.Store(0)
		sp.sendStart.Store(t0)
		sp.seq.Store(seq)
	}
	var err error
	if s.m.w.Broadcast {
		err = s.c.Broadcast(channel, uint16(s.f+1), buf[:size])
	} else {
		err = s.c.SendTo(s.spec.dst(seq), channel, uint16(s.f+1), buf[:size])
	}
	if s.m.traced {
		t1 := int64(s.m.clk.Now())
		s.callNs.observe(t1 - t0)
		if sp != nil {
			sp.sendEnd.Store(t1)
		}
	}
	s.sent++
	if err != nil {
		s.errs++
	}
}

// closedLoop keeps at most Window packets unheard by the flow's slowest
// receiver. The in-process pipe hands the payload over by reference and
// the server copies it when it reads, so a buffer is reused only after
// 2×Window further sends — by then every receiver has heard it.
func (s *sender) closedLoop(stop <-chan struct{}) {
	ring := make([][]byte, 2*s.m.w.Window)
	for i := range ring {
		ring[i] = make([]byte, maxSize(s.m.w.Sizes))
	}
	for seq := uint32(1); s.window.acquire(seq, s.wait, stop); seq++ {
		s.send(ring[seq%uint32(len(ring))], seq)
	}
}

// openLoop sends Rate packets/s in one burst per millisecond tick,
// whatever the server does; a late tick is followed at once by the next
// so the offered count never drops. What a stalled generator owes is
// paid back at no more than maxBurst packets per tick: an unbounded
// catch-up burst, all stamped within microseconds and so all due at
// once, would overflow the receiver's 256-entry send queue and the
// server's slow-client policy would — correctly — discard the oldest.
// TCP serializes the payload before Send returns, so one buffer serves.
func (s *sender) openLoop(stop <-chan struct{}) {
	buf := make([]byte, maxSize(s.m.w.Sizes))
	const tick = time.Millisecond
	start, clk0 := time.Now(), int64(s.m.clk.Now())
	seq := uint32(1)
	for k := int64(0); ; k++ {
		if d := time.Until(start.Add(time.Duration(k) * tick)); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return
		default:
		}
		intended := clk0 + k*int64(tick)
		target := min(uint64(k+1)*uint64(s.m.w.Rate)/1000, s.sent+maxBurst)
		for ; s.sent < target; seq++ {
			if !s.window.acquire(seq, s.wait, stop) {
				return
			}
			s.genLag.observe(int64(s.m.clk.Now()) - intended)
			s.send(buf, seq)
		}
	}
}

const maxBurst = 128

func maxSize(sizes []int) int {
	n := payloadHeader
	for _, s := range sizes {
		n = max(n, s)
	}
	return n
}

// operator is the churn workload's GUI user: ten scene operations a
// second, alternately moving a node and changing a radio range.
type operator struct {
	ops           int
	moved, ranged time.Duration // summed call time of the ops/2 calls of each kind
}

func (o *operator) run(r *rig, stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		op := r.in.Ops[o.ops%len(r.in.Ops)]
		o.ops++
		t0 := time.Now()
		if op.Move {
			r.scenes[0].MoveNode(op.Node, op.Pos)
			o.moved += time.Since(t0)
		} else {
			r.scenes[0].SetRange(op.Node, channel, op.Range)
			o.ranged += time.Since(t0)
		}
	}
}

// watcher polls the gauges that have no histogram (traced pass).
type watcher struct {
	depthMax, sendqMax, goroutinesMax int
}

func (w *watcher) run(r *rig, stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for i := 0; ; i++ {
		if d := r.stats().Scheduled; d > w.depthMax {
			w.depthMax = d
		}
		if g := runtime.NumGoroutine(); g > w.goroutinesMax {
			w.goroutinesMax = g
		}
		if i%10 == 0 { // SessionStats sorts the whole population: once a second
			for _, s := range r.servers {
				for _, ss := range s.SessionStats() {
					if ss.QueueDepth > w.sendqMax {
						w.sendqMax = ss.QueueDepth
					}
				}
			}
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload performs one pass: set-up, warm-up, the measured windows,
// settle, checks, teardown, and — traced — the layer probes.
func runWorkload(cfg runConfig) (*passResult, error) {
	w, t := cfg.W, cfg.T
	res := &passResult{Workload: w.Name, Traced: cfg.Traced, Metrics: map[string]float64{}}
	in, err := generate(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	clk := vclock.NewSystem(1)
	per := int(t.Window / t.LatWindow) // lateness windows per throughput window
	m := newMeter(w, in, clk, cfg.Traced)
	r, err := buildRig(w, in, clk, cfg.Traced, m.onPacketFor)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	res.Metrics["setup_s"] = time.Since(cfg.Start).Seconds()
	if cfg.SetupOnly {
		return res, nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := func(fn func()) { wg.Add(1); go func() { defer wg.Done(); fn() }() }
	var watch watcher
	if cfg.Traced {
		for _, s := range r.servers {
			s.SetDeliverHook(m.deliverHook)
		}
		start(func() { watch.run(r, stop) })
	}
	var op operator
	if w.Churn {
		start(func() { op.run(r, stop) })
	}
	senders := make([]*sender, numFlows)
	for f := range senders {
		s := &sender{m: m, f: f, c: r.clients[in.Flows[f].Src-1], spec: in.Flows[f], wait: t.TokenWait,
			window: r.flowWindow(m, f)}
		senders[f] = s
		if w.Rate == 0 {
			start(func() { s.closedLoop(stop) })
		} else {
			start(func() { s.openLoop(stop) })
		}
	}

	time.Sleep(t.Warmup)
	var ms0, ms1 runtime.MemStats
	if cfg.Traced {
		runtime.ReadMemStats(&ms0)
	}
	shards0 := r.shardStats()
	perWindow, rss := make([]float64, t.Windows), make([]float64, t.Windows)
	cpu0, t0, n0 := cpuTime(), time.Now(), m.received.sum()
	prevT, prevN := t0, n0
	for i := 0; i < t.Windows*per; i++ {
		m.win.Store(int32(i))
		time.Sleep(time.Until(t0.Add(time.Duration(i+1) * t.LatWindow)))
		if i > 0 {
			m.closeWindow(i - 1)
		}
		if (i+1)%per == 0 {
			now, n := time.Now(), m.received.sum()
			perWindow[i/per] = float64(n-prevN) / now.Sub(prevT).Seconds()
			rss[i/per] = rssMiB()
			prevT, prevN = now, n
		}
	}
	m.win.Store(-1)
	m.closeWindow(t.Windows*per - 1)
	cpu, measured, delivered := cpuTime()-cpu0, prevT.Sub(t0), prevN-n0
	shards1 := r.shardStats()
	if cfg.Traced {
		runtime.ReadMemStats(&ms1)
	}
	close(stop)
	wg.Wait()

	// Settle: every sent packet ingested, the pipeline drained, and the
	// last writes read by their clients.
	var sent, sendErrs, reclaimed uint64
	for _, s := range senders {
		sent, sendErrs = sent+s.sent, sendErrs+s.errs
		reclaimed += s.window.reclaimed
	}
	waitFor(10*time.Second, func() bool { return r.stats().Received+sendErrs >= sent })
	// A trunk batch is invisible to Quiesce while it is on the socket
	// between two peers; wait until every entry sent has been received.
	waitFor(10*time.Second, r.trunksSettled)
	if w.Trunk {
		time.Sleep(time.Millisecond) // received is counted just before the schedule push
	}
	quiesced := true
	for _, s := range r.servers {
		quiesced = s.Quiesce(30*time.Second) && quiesced
	}
	waitFor(10*time.Second, func() bool { return m.received.sum() >= r.stats().Forwarded })
	st, got := r.stats(), m.received.sum()

	// The child's stderr; the parent shows it if the pass fails.
	fmt.Fprintf(os.Stderr, "%s deliveries/s per window: %.0f\n", w.Name, perWindow)
	fmt.Fprintf(os.Stderr, "%s lateness over the run: p50 %.1f us  p99 %.1f us  (%d samples in %d windows)\n",
		w.Name, m.all.quantile(0.5)/1e3, m.all.quantile(0.99)/1e3, m.all.total, len(m.winP99))
	fmt.Fprintf(os.Stderr, "%s ledger: %+v\n", w.Name, st)
	res.Metrics["deliveries_per_s"] = median(perWindow)
	if delivered > 0 {
		res.Metrics["cpu_us_per_delivery"] = float64(cpu.Microseconds()) / float64(delivered)
	}
	res.Metrics["lateness_p99_us"] = m.latenessP99() / 1e3
	res.Metrics["rss_mb"] = median(rss)
	res.Attempted = st.Entered + sendErrs
	res.Failed = st.Entered - min(got, st.Entered) + sendErrs + reclaimed
	if res.Attempted > 0 {
		res.Metrics["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}

	res.check("pipeline_quiesced", quiesced, "Quiesce timed out: %+v", st)
	res.check("all_sent_ingested", st.Received+sendErrs == sent, "sent %d, server received %d, send errors %d", sent, st.Received, sendErrs)
	res.check("ledger_closes", st.Entered == st.Forwarded+st.QueueDrops+st.Abandoned,
		"entered %d != forwarded %d + queue drops %d + abandoned %d", st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
	res.check("trunk_dropped_zero", r.trunkDropped() == 0, "trunk dropped %d entries", r.trunkDropped())
	res.check("client_received_eq_forwarded", got == st.Forwarded, "clients saw %d, server forwarded %d", got, st.Forwarded)
	res.check("arrivals_ordered_no_dups", m.disorder.Load() == 0, "%d arrivals duplicated or out of due-time order", m.disorder.Load())
	res.check("payloads_intact", m.corrupt.Load() == 0, "%d payloads did not match what was sent", m.corrupt.Load())
	res.check("none_early", m.early.Load() == 0, "%d of %d sampled deliveries arrived more than %v before their due time",
		m.early.Load(), m.samples.Load(), earlyTolerance)
	res.check("measured_something", delivered > 0 && m.all.total > 0, "no deliveries in the measured windows")
	if w.Loss > 0 {
		// Binomial band around the configured loss, over every die rolled.
		n := float64(st.Dropped + st.Entered)
		sigma := math.Sqrt(w.Loss * (1 - w.Loss) / n)
		obs := float64(st.Dropped) / n
		res.check("loss_within_5_sigma", math.Abs(obs-w.Loss) <= 5*sigma, "observed loss %.5f, configured %.2f, 5σ = %.5f", obs, w.Loss, 5*sigma)
	} else {
		res.check("no_link_loss", st.Dropped == 0 && st.NoRoute == 0, "lossless model dropped %d, no-route %d", st.Dropped, st.NoRoute)
	}
	if r.store != nil {
		want := st.Received + st.Dropped + st.NoRoute + st.Forwarded
		res.check("record_matches", uint64(r.store.PacketCount()) == want, "store holds %d packet records, pipeline handled %d", r.store.PacketCount(), want)
	}

	var layer *layerInputs
	if cfg.Traced {
		layer = collectLive(res, r, m, senders, &op, &watch, layerWindow{
			measured: measured, delivered: delivered, shards0: shards0, shards1: shards1, ms0: &ms0, ms1: &ms1,
		})
	}
	r.close()
	for i, p := range r.pools {
		res.check(fmt.Sprintf("pool%d_live_zero", i), p.Live() == 0, "%d pooled buffers live after teardown", p.Live())
		if cfg.Traced {
			res.Metrics["mbuf.live_after_close"] += float64(p.Live())
		}
	}
	if cfg.Traced {
		if err := probeLayers(res, w, in, t, layer); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := probeGateway(res, t); err != nil {
			return nil, fmt.Errorf("gateway probe: %w", err)
		}
		if cfg.TraceOut != "" {
			if err := writeTrace(cfg.TraceOut, w, m); err != nil {
				return nil, err
			}
		}
		res.Metrics["proc.peak_rss_mb"] = peakRSSMiB()
	}
	return res, nil
}

func waitFor(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
