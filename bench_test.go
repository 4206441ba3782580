package repro

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md §3 for the experiment index), plus the ablation benches
// A1–A4. Run them all with:
//
//	go test -bench=. -benchmem
//
// Heavier end-to-end benches report paper metrics (loss-rate deviation,
// stamping error, update-cost ratio) through b.ReportMetric so the
// numbers appear next to the timings.

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline/mobiemu"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/sched"
	scriptpkg "repro/internal/script"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// BenchmarkTable1FeatureMatrix — E1: the feature-comparison table.
func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Table1(io.Discard)
	}
}

// BenchmarkTable2ProofOfConcept — E2: the full proof-of-concept run
// (five protocol-bearing clients, three live scene operations).
func BenchmarkTable2ProofOfConcept(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table2(io.Discard, experiment.Table2Config{
			Scale: 400, Beacon: 400 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Steps) != 3 {
			b.Fatal("incomplete run")
		}
	}
}

// BenchmarkFigure10RelayScenario — E3: the relay performance run; the
// reported metric is the max deviation from the analytic curve.
func BenchmarkFigure10RelayScenario(b *testing.B) {
	var dev float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure10(io.Discard, experiment.Figure10Config{
			Duration: 18 * time.Second,
			Scale:    30,     // headroom under full-suite load
			RateBps:  1600e3, // 200 pkt/s: enough samples per window for a stable maxdev
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		dev = res.MaxDevFromExpected
	}
	b.ReportMetric(dev, "maxdev")
}

// BenchmarkSerialVsParallelTimestamping — E4 (Figure 2 claim): the
// reported metric is the mean serial stamping error in microseconds
// with 16 simultaneous senders.
func BenchmarkSerialVsParallelTimestamping(b *testing.B) {
	var mean time.Duration
	for i := 0; i < b.N; i++ {
		res, err := experiment.SerialError(io.Discard, experiment.SerialErrorConfig{
			ClientCounts: []int{16},
			PerClient:    4,
			IngressDelay: 100 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Points[0].MeanError
	}
	b.ReportMetric(float64(mean.Microseconds()), "µs-mean-err")
}

// BenchmarkMobiEmuSceneStaleness — E5 (Figure 3 claim): one overdriven
// distributed-emulator simulation per iteration.
func BenchmarkMobiEmuSceneStaleness(b *testing.B) {
	cfg := mobiemu.Config{Stations: 16, Heterogeneity: 2, Seed: 1}
	var lag time.Duration
	for i := 0; i < b.N; i++ {
		r := mobiemu.Run(cfg, 400, 5*time.Second, int64(i))
		lag = r.MeanLag
	}
	b.ReportMetric(float64(lag.Milliseconds()), "ms-mean-lag")
}

// BenchmarkClockSync — E6 (Figure 5): one full synchronization (4
// rounds) over an in-memory exchanger per iteration.
func BenchmarkClockSync(b *testing.B) {
	base := vclock.NewManual(0)
	server := vclock.Offset{Base: base, Shift: 3 * time.Second}
	ex := vclock.ExchangerFunc(func(tc1 vclock.Time) (vclock.Time, vclock.Time, error) {
		base.Advance(200 * time.Microsecond)
		ts2 := server.Now()
		ts3 := server.Now()
		base.Advance(200 * time.Microsecond)
		return ts2, ts3, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vclock.Synchronize(base, ex, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighborTableIndexedVsUnified — E7 (Figure 6 / §4.2, also
// ablation A2): cost of one Move in a 256-node, 8-channel scene.
func BenchmarkNeighborTableIndexedVsUnified(b *testing.B) {
	build := func(tab radio.NeighborTable, rng *rand.Rand) []radio.NodeID {
		var ids []radio.NodeID
		for i := 0; i < 256; i++ {
			id := radio.NodeID(i)
			tab.AddNode(&radio.Node{
				ID:     id,
				Pos:    geom.V(rng.Float64()*1200, rng.Float64()*1200),
				Radios: []radio.Radio{{Channel: radio.ChannelID(1 + i%8), Range: 150}},
			})
			if i%8 == 0 {
				ids = append(ids, id) // the channel-1 community
			}
		}
		return ids
	}
	b.Run("indexed", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		tab := radio.NewIndexed(200)
		ids := build(tab, rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Move(ids[i%len(ids)], geom.V(rng.Float64()*1200, rng.Float64()*1200))
		}
	})
	b.Run("unified", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		tab := radio.NewUnified()
		ids := build(tab, rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Move(ids[i%len(ids)], geom.V(rng.Float64()*1200, rng.Float64()*1200))
		}
	})
}

// BenchmarkServerForwardPipeline — E8 (§3.2): steady-state unicast
// forwarding through the full server pipeline, in-process transport.
func BenchmarkServerForwardPipeline(b *testing.B) {
	clk := vclock.NewSystem(1000)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 200}})
	sc.AddNode(2, geom.V(50, 0), []radio.Radio{{Channel: 1, Range: 200}})
	srv, err := core.NewServer(core.ServerConfig{Clock: clk, Scene: sc})
	if err != nil {
		b.Fatal(err)
	}
	lis := transport.NewInprocListener()
	go srv.Serve(lis)
	defer srv.Close()
	defer lis.Close()
	done := make(chan struct{}, 1<<20)
	c2, err := core.Dial(core.ClientConfig{
		ID: 2, Dial: lis.Dialer(), LocalClock: clk,
		OnPacket: func(wire.Packet) { done <- struct{}{} },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c2.Close()
	c1, err := core.Dial(core.ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk})
	if err != nil {
		b.Fatal(err)
	}
	defer c1.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c1.SendTo(2, 1, 0, payload); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// BenchmarkSessionQueueFanout — E8 companion for the per-session
// delivery pipeline: one broadcast fans out to 8 receiver sessions, so
// every iteration pushes through 8 outbound writer queues
// concurrently. The old goroutine-per-packet path paid a goroutine
// spawn per delivery here; the queue path pays one enqueue. The run is
// instrumented with the obs registry (default 1-in-64 sampling, the
// production setting) and reports per-stage p99 latencies — the
// overhead baseline recorded in BENCH_obs.json. The shards=1/shards=4
// pair is the sharded-core comparison recorded in BENCH_shard.json:
// at 4 shards the 8 receivers' deliveries spread over 4 independent
// scanner/clock loops instead of serializing on one.
func BenchmarkSessionQueueFanout(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchSessionQueueFanout(b, shards)
		})
	}
}

func benchSessionQueueFanout(b *testing.B, shards int) {
	const receivers = 8
	clk := vclock.NewSystem(1000)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 500}})
	for i := 0; i < receivers; i++ {
		sc.AddNode(radio.NodeID(i+2), geom.V(float64(10*(i+1)), 0),
			[]radio.Radio{{Channel: 1, Range: 500}})
	}
	reg := obs.NewRegistry()
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Obs: reg, Shards: shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	lis := transport.NewInprocListener()
	go srv.Serve(lis)
	defer srv.Close()
	defer lis.Close()
	done := make(chan struct{}, 1<<20)
	for i := 0; i < receivers; i++ {
		c, err := core.Dial(core.ClientConfig{
			ID: radio.NodeID(i + 2), Dial: lis.Dialer(), LocalClock: clk,
			OnPacket: func(wire.Packet) { done <- struct{}{} },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
	}
	sender, err := core.Dial(core.ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk})
	if err != nil {
		b.Fatal(err)
	}
	defer sender.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload) * receivers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Broadcast(1, 0, payload); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < receivers; k++ {
			<-done
		}
	}
	b.StopTimer()
	if drops := srv.Stats().QueueDrops; drops != 0 {
		b.Fatalf("lossless fan-out dropped %d deliveries", drops)
	}
	for _, st := range [...]struct{ name, metric string }{
		{"poem_ingest_ns", "ingest-p99-ns"},
		{"poem_dispatch_ns", "dispatch-p99-ns"},
		{"poem_enqueue_ns", "enqueue-p99-ns"},
		{"poem_send_ns", "send-p99-ns"},
	} {
		if h := reg.FindHistogram(st.name); h != nil && h.Count() > 0 {
			b.ReportMetric(h.Quantile(0.99), st.metric)
		}
	}
}

// BenchmarkScheduleQueue — E8: the schedule heap under steady load.
func BenchmarkScheduleQueue(b *testing.B) {
	q := sched.NewHeap()
	rng := rand.New(rand.NewSource(1))
	now := vclock.Time(0)
	for i := 0; i < 4096; i++ {
		q.Push(sched.Item{Due: now + vclock.FromMillis(int64(rng.Intn(200)))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += vclock.FromMillis(1)
		for {
			if _, ok := q.PopDue(now); !ok {
				break
			}
			q.Push(sched.Item{Due: now + vclock.FromMillis(int64(rng.Intn(200)))})
		}
	}
}

// BenchmarkWireCodec — E9: encode+decode of a 1 KiB data frame (sizes
// ablation in internal/wire).
func BenchmarkWireCodec(b *testing.B) {
	m := &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Channel: 1, Payload: make([]byte, 1024)}}
	buf := &loopBuffer{}
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.WriteMsg(buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ReadMsg(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// loopBuffer is a minimal rewindable buffer for the codec bench.
type loopBuffer struct {
	data []byte
	off  int
}

func (l *loopBuffer) Write(p []byte) (int, error) {
	l.data = append(l.data, p...)
	return len(p), nil
}

func (l *loopBuffer) Read(p []byte) (int, error) {
	if l.off >= len(l.data) {
		return 0, io.EOF
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

func (l *loopBuffer) Reset() { l.data, l.off = l.data[:0], 0 }

// BenchmarkScriptedScenario — E12 (§7): parse + run a scenario script
// against a scene in compressed time.
func BenchmarkScriptedScenario(b *testing.B) {
	const src = `
region 0 0 500 500
at 0s add 1 pos 100,100 radio ch=1 range=200
at 0s add 2 pos 220,100 radio ch=1 range=200
at 0s mobility 2 linear dir=90 speed=10
at 1s range 1 ch=1 120
at 2s radios 1 radio ch=2 range=200
at 3s end
`
	for i := 0; i < b.N; i++ {
		runScriptBench(b, src)
	}
}

func runScriptBench(b *testing.B, src string) {
	b.Helper()
	sp, err := parseScript(src)
	if err != nil {
		b.Fatal(err)
	}
	clk := vclock.NewSystem(3000)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	if err := sp.Run(sc, clk, nil); err != nil {
		b.Fatal(err)
	}
}

// parseScript is a tiny indirection so the bench file reads top-down.
func parseScript(src string) (*scriptpkg.Script, error) {
	return scriptpkg.Parse(strings.NewReader(src))
}

// BenchmarkProtocolComparison — E13: one full four-protocol comparison
// run per iteration; the metric is the hybrid protocol's delivery
// ratio under mobility.
func BenchmarkProtocolComparison(b *testing.B) {
	var pdr float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Protocols(io.Discard, experiment.ProtocolsConfig{
			Duration: 15 * time.Second, Scale: 300, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		pdr = res.Rows[0].PDR
	}
	b.ReportMetric(pdr, "hybrid-pdr")
}

// BenchmarkMultiChannelCapacity — E14: one full capacity sweep per
// iteration; the metric is single-channel utilization (≈1.0 means the
// serialized medium saturates exactly at its configured rate).
func BenchmarkMultiChannelCapacity(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		// Modest time compression leaves wall headroom so the metric
		// stays meaningful when the whole bench suite loads the box.
		res, err := experiment.Capacity(io.Discard, experiment.CapacityConfig{
			Duration: 4 * time.Second, Scale: 10, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		util = res.Points[0].Utilization
	}
	b.ReportMetric(util, "ch1-util")
}
