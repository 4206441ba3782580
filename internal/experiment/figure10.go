package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Figure10Config carries Table 3's experiment parameters plus run
// mechanics. Zero values take the paper's numbers.
type Figure10Config struct {
	HopDistance float64       // d, units (paper: 120)
	Range       float64       // R, units (paper: 200)
	RateBps     float64       // CBR (paper: 4 Mb/s)
	PacketSize  int           // wire bytes per CBR packet
	Speed       float64       // v, units/s (paper: 10, downwards = 90°)
	P0, P1, D0  float64       // loss model (paper: 0.1, 0.9, 50)
	Duration    time.Duration // emulated run length
	Window      time.Duration // loss-rate window
	Scale       float64       // time compression
	Seed        int64
	// SerialService is the per-packet service time of the hypothetical
	// serially-stamping server used to derive the "non-real-time"
	// curve. Above the CBR inter-packet gap the backlog grows and the
	// curve drifts — the paper's inaccuracy.
	SerialService time.Duration
	// ShadowingSigmaDB, when positive, wraps the loss model in
	// log-normal slow fading (the §7 "sophisticated models" extension):
	// the measured curve then wanders around the smooth expectation
	// with the fade coherence time. 0 keeps the paper's exact model.
	ShadowingSigmaDB float64
}

func (c Figure10Config) withDefaults() Figure10Config {
	if c.HopDistance <= 0 {
		c.HopDistance = 120
	}
	if c.Range <= 0 {
		c.Range = 200
	}
	if c.RateBps <= 0 {
		c.RateBps = 4e6
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 1000
	}
	if c.Speed <= 0 {
		c.Speed = 10
	}
	if c.P0 == 0 && c.P1 == 0 {
		c.P0, c.P1 = 0.1, 0.9
	}
	if c.D0 <= 0 {
		c.D0 = 50
	}
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.Scale <= 0 {
		c.Scale = 20
	}
	if c.SerialService <= 0 {
		// 1.5× the CBR gap: a server that cannot keep up, per §2.1.
		gap := traffic.CBR{RateBps: c.RateBps, PacketSize: c.PacketSize}.NextGap(nil)
		c.SerialService = gap + gap/2
	}
	return c
}

// Figure10Result carries the three curves of Figure 10.
type Figure10Result struct {
	Experiment      stats.Series // measured, client parallel stamps
	ExpectedReal    stats.Series // analytic, true geometry
	NonRealTime     stats.Series // serial-stamping model applied to the run
	Sent, Delivered int
	// MaxDevFromExpected is max |experiment - expected| over aligned
	// windows — the paper's "minor error" between experiment and the
	// expected real-time curve.
	MaxDevFromExpected float64
	// Overhead is the emulator's own sampled per-stage p99 during the
	// run, so the curve comparison carries its measurement cost.
	Overhead Overhead
	// Recording is the run's full record store, for replay and custom
	// analysis.
	Recording *record.Store
}

// Figure10 reproduces the paper's §6.2 performance evaluation: VMN1
// (channel 1) streams CBR to VMN3 (channel 2) through the dual-radio
// relay VMN2, which moves downwards at v; packet-loss rate per window
// is plotted three ways.
func Figure10(w io.Writer, cfg Figure10Config) (Figure10Result, error) {
	cfg = cfg.withDefaults()
	clk := vclock.NewSystem(cfg.Scale)
	sc := scene.New(radio.NewIndexed(cfg.Range+50), clk, cfg.Seed)
	store := record.NewStore()

	loss, err := linkmodel.NewDistanceLoss(cfg.P0, cfg.P1, cfg.D0, cfg.Range)
	if err != nil {
		return Figure10Result{}, err
	}
	for _, ch := range []radio.ChannelID{1, 2} {
		var lm linkmodel.LossModel = loss
		if cfg.ShadowingSigmaDB > 0 {
			lm = linkmodel.NewShadowing(loss, cfg.ShadowingSigmaDB, clk, cfg.Seed+int64(ch))
		}
		model := linkmodel.Model{
			Loss:      lm,
			Bandwidth: linkmodel.ConstantBandwidth{Bps: 100e6}, // loss comes from the loss model only (§6.2)
			Delay:     linkmodel.ConstantDelay{D: time.Millisecond},
		}
		if err := sc.SetLinkModel(ch, model); err != nil {
			return Figure10Result{}, err
		}
	}

	// Figure 9 scene. VMN2 carries two radios and will move downwards.
	d := cfg.HopDistance
	if err := sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: cfg.Range}}); err != nil {
		return Figure10Result{}, err
	}
	if err := sc.AddNode(2, geom.V(d, 0), []radio.Radio{
		{Channel: 1, Range: cfg.Range}, {Channel: 2, Range: cfg.Range},
	}); err != nil {
		return Figure10Result{}, err
	}
	if err := sc.AddNode(3, geom.V(2*d, 0), []radio.Radio{{Channel: 2, Range: cfg.Range}}); err != nil {
		return Figure10Result{}, err
	}

	reg := obs.NewRegistry()
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Store: store, Seed: cfg.Seed,
		TickStep: 50 * time.Millisecond,
		Obs:      reg, ObsSampleEvery: 8,
	})
	if err != nil {
		return Figure10Result{}, err
	}
	lis := transport.NewInprocListener()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-serveDone }()

	const flow = 1
	// VMN3: pure sink (recording counts deliveries).
	c3, err := core.Dial(core.ClientConfig{ID: 3, Dial: lis.Dialer(), LocalClock: clk})
	if err != nil {
		return Figure10Result{}, err
	}
	defer c3.Close()
	// VMN2: relayer — re-addresses flow packets from channel 1 onto
	// channel 2 toward VMN3, preserving the statistics labels.
	var c2 *core.Client
	c2, err = core.Dial(core.ClientConfig{
		ID: 2, Dial: lis.Dialer(), LocalClock: clk,
		OnPacket: func(p wire.Packet) {
			if p.Flow != flow || p.Channel != 1 {
				return
			}
			fwd := p
			fwd.Dst = 3
			fwd.Channel = 2
			c2.Send(fwd)
		},
	})
	if err != nil {
		return Figure10Result{}, err
	}
	defer c2.Close()
	// VMN1: CBR source.
	c1, err := core.Dial(core.ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk})
	if err != nil {
		return Figure10Result{}, err
	}
	defer c1.Close()

	// Start the relay's dive only now that everyone is connected.
	sc.SetMobility(2, mobility.Linear(90, cfg.Speed, geom.R(-1e6, -1e6, 1e6, 1e6)))
	start := clk.Now()

	payload := cfg.PacketSize - 28 // wire.Packet header overhead
	if payload < 0 {
		payload = 0
	}
	pump := traffic.NewPump(clk,
		traffic.CBR{RateBps: cfg.RateBps, PacketSize: cfg.PacketSize},
		payload,
		func(seq uint32, body []byte) error {
			return c1.Send(wire.Packet{Dst: 2, Channel: 1, Flow: flow, Seq: seq, Payload: body})
		}, cfg.Seed)
	sent, err := pump.Run(start.Add(cfg.Duration))
	if err != nil {
		return Figure10Result{}, err
	}
	// Drain in-flight packets.
	time.Sleep(time.Duration(float64(200*time.Millisecond)/cfg.Scale) + 50*time.Millisecond)

	rep := stats.AnalyzeFlowTo(store, flow, cfg.Window, 3)
	res := Figure10Result{
		Experiment: rep.RealTime,
		Sent:       sent,
		Delivered:  rep.Delivered,
		Recording:  store,
	}
	res.ExpectedReal = expectedRelayCurve(cfg, loss, rep.RealTime)
	res.NonRealTime = serialStampCurve(store, flow, cfg)
	res.MaxDevFromExpected = stats.MaxAbsDiff(res.Experiment, res.ExpectedReal)
	res.Overhead = overheadFrom(reg, srv)

	if w != nil {
		fmt.Fprintf(w, "Figure 10. Packet loss rate over time (window %v, %d sent, %d delivered)\n",
			cfg.Window, res.Sent, res.Delivered)
		fmt.Fprintf(w, "%8s  %12s  %12s  %12s\n", "t(s)", "experiment", "real-time", "non-real-time")
		for i, p := range res.Experiment {
			exp, nrt := "", ""
			if i < len(res.ExpectedReal) {
				exp = fmt.Sprintf("%.3f", res.ExpectedReal[i].V)
			}
			if i < len(res.NonRealTime) {
				nrt = fmt.Sprintf("%.3f", res.NonRealTime[i].V)
			}
			fmt.Fprintf(w, "%8.1f  %12.3f  %12s  %12s\n", p.T, p.V, exp, nrt)
		}
		fmt.Fprintf(w, "max |experiment - expected real-time| = %.3f\n", res.MaxDevFromExpected)
		fmt.Fprintf(w, "emulator overhead: %v\n", res.Overhead)
	}
	return res, nil
}

// expectedRelayCurve is the analytic real-time curve, evaluated at the
// same window midpoints as the measured series so the two align
// pointwise: end-to-end loss over the two hops given the relay's
// position y(t) = v·t.
func expectedRelayCurve(cfg Figure10Config, loss linkmodel.DistanceLoss, align stats.Series) stats.Series {
	out := make(stats.Series, 0, len(align))
	d := cfg.HopDistance
	for _, pt := range align {
		y := cfg.Speed * pt.T
		r := geom.V(0, 0).Dist(geom.V(d, y)) // both hops are symmetric
		var v float64
		if r > cfg.Range {
			v = 1 // relay out of range: total loss
		} else {
			v = linkmodel.PathLoss(loss.LossProb(r), loss.LossProb(r))
		}
		out = append(out, stats.Point{T: pt.T, V: v})
	}
	return out
}

// serialStampCurve derives the "non-real-time" curve: the same run's
// send events re-stamped by a serially processing server (FIFO queue
// with fixed service time), then windowed on those distorted stamps.
func serialStampCurve(store *record.Store, flow uint16, cfg Figure10Config) stats.Series {
	type sendEv struct {
		stamp     vclock.Time
		delivered bool
	}
	bySeq := make(map[uint32]*sendEv)
	store.ForEachPacket(func(p record.Packet) {
		if p.Flow != flow {
			return
		}
		switch p.Kind {
		case record.PacketIn:
			if _, ok := bySeq[p.Seq]; !ok {
				bySeq[p.Seq] = &sendEv{stamp: p.Stamp}
			}
		case record.PacketOut:
			if p.Relay == 3 {
				if ev, ok := bySeq[p.Seq]; ok {
					ev.delivered = true
				}
			}
		}
	})
	evs := make([]*sendEv, 0, len(bySeq))
	for _, ev := range bySeq {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].stamp < evs[j].stamp })
	acc := stats.NewLossAccum(cfg.Window)
	var free vclock.Time
	for _, ev := range evs {
		// FIFO queue: the serial stamp is the completion time.
		arr := ev.stamp
		if free > arr {
			arr = free
		}
		serial := arr.Add(cfg.SerialService)
		free = serial
		acc.Sent(serial)
		if ev.delivered {
			acc.Received(serial)
		}
	}
	return acc.Series()
}
