package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// LoadConfig tunes the schedule-storm load experiment behind the batch-
// firing scheduler (DESIGN.md "Batch scheduler", EXPERIMENTS.md A7): a
// large population of mostly-idle in-process sessions, a strided subset
// of which broadcast simultaneously, so every surviving delivery lands
// in the schedule within one link delay of its neighbors — the deepest
// due-run the scanner ever faces.
type LoadConfig struct {
	// Sessions is the connected-client population. The default, 100k,
	// is the paper-scale headline; CI smoke runs use a few hundred.
	Sessions int
	// Senders is how many of the sessions transmit, spread by stride
	// across the population (and therefore across the placement grid).
	// Default Sessions/100, min 4.
	Senders int
	// Packets is how many broadcasts each sender fires. Default 4.
	Packets int
	// Payload is the broadcast payload size in bytes. Default 64.
	Payload int
	// Shards is the server's pipeline shard count; 0 = DefaultShards.
	Shards int
	// Scale compresses time: the emulation clock runs Scale× wall.
	// Default 200.
	Scale float64
	// Seed feeds the scene and link-model dice (the models here are
	// deterministic, so it only perturbs placement-independent state).
	Seed int64
	// RTTolerance is the fidelity monitor's deadline-miss tolerance
	// (core.ServerConfig.RTTolerance): 0 = default.
	RTTolerance time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Sessions <= 0 {
		c.Sessions = 100000
	}
	if c.Senders <= 0 {
		c.Senders = c.Sessions / 100
		if c.Senders < 4 {
			c.Senders = 4
		}
	}
	if c.Senders > c.Sessions {
		c.Senders = c.Sessions
	}
	if c.Packets <= 0 {
		c.Packets = 4
	}
	if c.Payload <= 0 {
		c.Payload = 64
	}
	if c.Scale <= 0 {
		c.Scale = 200
	}
	return c
}

// LoadResult is the schedule-storm measurement: the conservation ledger
// plus the scanner-loop accounting the batch scheduler optimizes.
type LoadResult struct {
	Sessions int
	Senders  int
	Shards   int

	DialWall    time.Duration // connecting the whole population
	TrafficWall time.Duration // first send → pipeline quiesced

	Entered   uint64 // deliveries listed into the schedule
	Forwarded uint64 // deliveries shipped to clients
	Drops     uint64 // slow-client queue evictions
	Abandoned uint64
	// ClientReceived is the client-side cross-check: OnPacket callbacks
	// observed across the whole population. Must equal Forwarded.
	ClientReceived uint64

	FiredPerSec float64 // Forwarded / TrafficWall

	// Scanner accounting, summed across shards.
	FireLocks     uint64
	PushLocks     uint64
	LocksPerItem  float64 // (FireLocks+PushLocks)/Forwarded
	FireBatches   uint64
	ItemsPerBatch float64
	BatchP50      float64 // poem_sched_fire_batch_entries quantiles
	BatchP99      float64
	Wakeups       uint64
	SpuriousWakes uint64
	KickEliedRate float64 // elided / (elided+delivered)

	GoroutinePeak int

	// Real-time fidelity, per shard: was the storm absorbed inside the
	// deadline tolerance, and if not, by how much each slice fell behind.
	Health  string // server-wide worst state
	ShardRT []ShardRT
}

// ShardRT is one shard's fidelity report from the load run.
type ShardRT struct {
	Shard     int
	Health    string
	Misses    uint64
	MissRate  float64
	LagP50    time.Duration
	LagP99    time.Duration
	Watermark time.Duration
	Drift     time.Duration
}

// Load connects cfg.Sessions in-process emulation clients to one
// server, fires a synchronized broadcast storm from a strided sender
// subset, quiesces, and reports the schedule-storm accounting. The link
// model is lossless and constant-delay, so after a clean quiesce the
// conservation ledger must close exactly: Entered == Forwarded when
// nothing was dropped or abandoned — which Load verifies and returns as
// an error otherwise.
func Load(w io.Writer, cfg LoadConfig) (LoadResult, error) {
	cfg = cfg.withDefaults()
	res := LoadResult{Sessions: cfg.Sessions, Senders: cfg.Senders}

	clk := vclock.NewSystem(cfg.Scale)
	sc := scene.New(radio.NewIndexed(64), clk, cfg.Seed)
	reg := obs.NewRegistry()
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Seed: cfg.Seed, Obs: reg,
		Shards: cfg.Shards, RTTolerance: cfg.RTTolerance,
		// A storm destination legitimately absorbs every in-range
		// sender's burst before its writer runs once on a saturated
		// host; the queue bound should not be what the experiment
		// measures. The ring grows on demand, so an unused bound is
		// free.
		SendQueueDepth: 1 << 14,
		// The scene is static; keep the mobility ticker out of the
		// single-core measurement.
		TickStep: 10 * time.Second,
	})
	if err != nil {
		return res, err
	}
	res.Shards = srv.Shards()
	model, err := linkmodel.New(linkmodel.NoLoss{},
		linkmodel.ConstantBandwidth{Bps: 1e9},
		linkmodel.ConstantDelay{D: time.Millisecond})
	if err != nil {
		return res, err
	}
	if err := sc.SetLinkModel(1, model); err != nil {
		return res, err
	}
	// Grid placement, 10 apart, radios reaching ~3.5 cells: every
	// broadcast survives to a bounded O(10s) neighborhood, so total
	// deliveries scale with Senders, not Sessions². Bulk-added so the
	// channel view is built once, not once per node.
	side := 1
	for side*side < cfg.Sessions {
		side++
	}
	nodes := make([]scene.NodeSpec, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		nodes[i] = scene.NodeSpec{
			ID:     radio.NodeID(i + 1),
			Pos:    geom.V(float64(i%side)*10, float64(i/side)*10),
			Radios: []radio.Radio{{Channel: 1, Range: 35}},
		}
	}
	if err := sc.AddNodes(nodes); err != nil {
		return res, err
	}

	lis := transport.NewInprocListener()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-serveDone }()

	// Dial the population through a bounded worker pool; one handshake
	// round per client keeps the setup phase linear.
	var received atomic.Uint64
	clients := make([]*core.Client, cfg.Sessions)
	dialStart := time.Now()
	var wg sync.WaitGroup
	dialErr := make(chan error, 1)
	idxCh := make(chan int, 256)
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers > 64 {
		workers = 64
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				c, err := core.Dial(core.ClientConfig{
					ID: radio.NodeID(i + 1), Dial: lis.Dialer(),
					LocalClock: clk, SyncRounds: 1,
					OnPacket: func(p wire.Packet) { received.Add(1) },
				})
				if err != nil {
					select {
					case dialErr <- fmt.Errorf("dial session %d: %w", i+1, err):
					default:
					}
					return
				}
				clients[i] = c
			}
		}()
	}
	for i := 0; i < cfg.Sessions; i++ {
		clients[i] = nil
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	select {
	case err := <-dialErr:
		return res, err
	default:
	}
	res.DialWall = time.Since(dialStart)
	res.GoroutinePeak = runtime.NumGoroutine()

	// The storm: every sender blasts its broadcasts concurrently, so
	// the surviving deliveries — all due within one link delay — pile
	// into the schedules as one deep due-run.
	payload := make([]byte, cfg.Payload)
	stride := cfg.Sessions / cfg.Senders
	if stride < 1 {
		stride = 1
	}
	sendErr := make(chan error, cfg.Senders)
	trafficStart := time.Now()
	for s := 0; s < cfg.Senders; s++ {
		go func(i int) {
			c := clients[(i*stride)%cfg.Sessions]
			for k := 0; k < cfg.Packets; k++ {
				if err := c.Broadcast(1, uint16(i%1000+1), payload); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}(s)
	}
	for s := 0; s < cfg.Senders; s++ {
		if err := <-sendErr; err != nil {
			return res, err
		}
	}
	// A returned Send only means the bytes are on the (in-proc) wire;
	// packets still in flight are invisible to Quiesce, which watches
	// schedules and send queues. Wait for the server to acknowledge the
	// whole storm — Received commits after the packet's schedule entries
	// exist — and only then quiesce.
	sent := uint64(cfg.Senders * cfg.Packets)
	for deadline := time.Now().Add(2 * time.Minute); srv.Stats().Received < sent; {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("load: server ingested %d/%d packets", srv.Stats().Received, sent)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !srv.Quiesce(2 * time.Minute) {
		return res, fmt.Errorf("load: pipeline did not quiesce: %+v", srv.Stats())
	}
	res.TrafficWall = time.Since(trafficStart)
	if g := runtime.NumGoroutine(); g > res.GoroutinePeak {
		res.GoroutinePeak = g
	}

	st := srv.Stats()
	res.Entered, res.Forwarded = st.Entered, st.Forwarded
	res.Drops, res.Abandoned = st.QueueDrops, st.Abandoned
	// Forwarded is final after Quiesce; the client-side callbacks may
	// trail it by one in-flight wire write each, so give them a moment.
	for deadline := time.Now().Add(10 * time.Second); received.Load() < st.Forwarded; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	res.ClientReceived = received.Load()
	if res.TrafficWall > 0 {
		res.FiredPerSec = float64(res.Forwarded) / res.TrafficWall.Seconds()
	}
	res.Health = st.Health
	for _, sh := range srv.ShardStats() {
		res.FireLocks += sh.FireLocks
		res.PushLocks += sh.PushLocks
		res.FireBatches += sh.FireBatches
		res.Wakeups += sh.Wakeups
		res.SpuriousWakes += sh.SpuriousWakes
		res.KickEliedRate += float64(sh.KicksElided) // numerator, normalized below
		res.ShardRT = append(res.ShardRT, ShardRT{
			Shard: sh.Shard, Health: sh.Health,
			Misses: sh.DeadlineMisses, MissRate: sh.MissRate,
			LagP50: sh.LagP50, LagP99: sh.LagP99,
			Watermark: sh.LagWatermark, Drift: sh.Drift,
		})
	}
	var kicksDelivered uint64
	for _, sh := range srv.ShardStats() {
		kicksDelivered += sh.KicksDelivered
	}
	if total := res.KickEliedRate + float64(kicksDelivered); total > 0 {
		res.KickEliedRate /= total
	}
	if res.Forwarded > 0 {
		res.LocksPerItem = float64(res.FireLocks+res.PushLocks) / float64(res.Forwarded)
	}
	if res.FireBatches > 0 {
		res.ItemsPerBatch = float64(res.Forwarded) / float64(res.FireBatches)
	}
	if h := reg.FindHistogram("poem_sched_fire_batch_entries"); h != nil && h.Count() > 0 {
		res.BatchP50 = float64(h.Quantile(0.50))
		res.BatchP99 = float64(h.Quantile(0.99))
	}

	// Lossless constant-delay links and a clean quiesce: the ledger
	// must close with nothing lost anywhere.
	if st.Entered != st.Forwarded || st.QueueDrops != 0 || st.Abandoned != 0 {
		return res, fmt.Errorf("load: conservation violated: %+v", st)
	}

	if w != nil {
		fmt.Fprintf(w, "Load: %d sessions (%d shards), %d senders × %d broadcasts, %dB payloads\n",
			res.Sessions, res.Shards, res.Senders, cfg.Packets, cfg.Payload)
		fmt.Fprintf(w, "  dial %v   storm %v   %.0f deliveries/s   goroutines %d\n",
			res.DialWall.Round(time.Millisecond), res.TrafficWall.Round(time.Millisecond),
			res.FiredPerSec, res.GoroutinePeak)
		fmt.Fprintf(w, "  entered=%d forwarded=%d received=%d drops=%d abandoned=%d\n",
			res.Entered, res.Forwarded, res.ClientReceived, res.Drops, res.Abandoned)
		fmt.Fprintf(w, "  locks/delivery %.4f (fire %d + push %d)   batch mean %.1f p50 %.0f p99 %.0f\n",
			res.LocksPerItem, res.FireLocks, res.PushLocks,
			res.ItemsPerBatch, res.BatchP50, res.BatchP99)
		fmt.Fprintf(w, "  wakeups %d (spurious %d)   kick elide rate %.3f\n",
			res.Wakeups, res.SpuriousWakes, res.KickEliedRate)
		fmt.Fprintf(w, "  health=%s (rt-tolerance %v)\n", res.Health, rtToleranceLabel(cfg.RTTolerance))
		for _, rt := range res.ShardRT {
			fmt.Fprintf(w, "    shard %d health=%s misses=%d missrate=%.4f lag p50 %v p99 %v watermark %v drift %v\n",
				rt.Shard, rt.Health, rt.Misses, rt.MissRate,
				rt.LagP50, rt.LagP99, rt.Watermark, rt.Drift)
		}
	}
	return res, nil
}

func rtToleranceLabel(d time.Duration) string {
	if d == 0 {
		return "default"
	}
	return d.String()
}
