package experiment

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/baseline/jemu"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// SerialErrorConfig tunes the Figure 2 experiment: clients bursting
// simultaneously into a serially processing server.
type SerialErrorConfig struct {
	ClientCounts []int         // sweep (default 2..32)
	PerClient    int           // packets per client per burst
	IngressDelay time.Duration // serial per-packet processing time
}

func (c SerialErrorConfig) withDefaults() SerialErrorConfig {
	if len(c.ClientCounts) == 0 {
		c.ClientCounts = []int{2, 4, 8, 16, 32}
	}
	if c.PerClient <= 0 {
		c.PerClient = 4
	}
	if c.IngressDelay <= 0 {
		c.IngressDelay = 200 * time.Microsecond
	}
	return c
}

// SerialErrorPoint is one sweep point.
type SerialErrorPoint struct {
	Clients   int
	Packets   int
	MeanError time.Duration // mean (serial receive stamp − parallel client stamp)
	MaxError  time.Duration
	// Overhead is the emulator's own per-stage p99 for this point's run,
	// sampled on every packet (the bursts are small). The serial
	// interface sits in front of the server (jemu.SerialInterface), so
	// IngestP99 is PoEm's own ingest cost with no lock wait or modelled
	// NIC time in it: the stamping error being measured is only
	// attributable to the serial interface while these stay orders of
	// magnitude below IngressDelay.
	Overhead Overhead
}

// SerialErrorResult is the Figure 2 sweep.
type SerialErrorResult struct {
	Points []SerialErrorPoint
}

// SerialError measures the §2.1/Figure 2 effect: when several clients
// transmit at the same emulation instant, a serially-stamping server
// smears their timestamps apart by its per-packet processing time,
// while the clients' parallel stamps stay truthful. The error grows
// linearly with the number of simultaneous senders.
func SerialError(w io.Writer, cfg SerialErrorConfig) (SerialErrorResult, error) {
	cfg = cfg.withDefaults()
	var res SerialErrorResult
	for _, n := range cfg.ClientCounts {
		pt, err := serialErrorOnce(n, cfg)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, pt)
	}
	if w != nil {
		fmt.Fprintf(w, "Figure 2 claim: serial stamping error vs concurrent senders (service %v)\n", cfg.IngressDelay)
		fmt.Fprintf(w, "%8s  %8s  %12s  %12s  %12s\n", "clients", "packets", "mean error", "max error", "ingest p99")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%8d  %8d  %12v  %12v  %12v\n",
				p.Clients, p.Packets, p.MeanError, p.MaxError, p.Overhead.IngestP99)
		}
	}
	return res, nil
}

func serialErrorOnce(n int, cfg SerialErrorConfig) (SerialErrorPoint, error) {
	clk := vclock.NewSystem(1) // real time: ingress delay is wall time
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	store := record.NewStore()
	// Receiver node 1000 hears everyone.
	if err := sc.AddNode(1000, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 1e6}}); err != nil {
		return SerialErrorPoint{}, err
	}
	for i := 1; i <= n; i++ {
		if err := sc.AddNode(radio.NodeID(i), geom.V(float64(i), 0), []radio.Radio{{Channel: 1, Range: 1e6}}); err != nil {
			return SerialErrorPoint{}, err
		}
	}
	reg := obs.NewRegistry()
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Store: store,
		Obs: reg, ObsSampleEvery: 1,
	})
	if err != nil {
		return SerialErrorPoint{}, err
	}
	// The centralized baseline: every packet crosses one incoming
	// interface and is received serially before the server stamps it.
	lis := transport.NewInprocListener()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(jemu.SerialInterface(lis, cfg.IngressDelay)) }()
	defer func() { lis.Close(); srv.Close(); <-serveDone }()

	sink, err := core.Dial(core.ClientConfig{ID: 1000, Dial: lis.Dialer(), LocalClock: clk})
	if err != nil {
		return SerialErrorPoint{}, err
	}
	defer sink.Close()

	clients := make([]*core.Client, n)
	for i := range clients {
		c, err := core.Dial(core.ClientConfig{ID: radio.NodeID(i + 1), Dial: lis.Dialer(), LocalClock: clk})
		if err != nil {
			return SerialErrorPoint{}, err
		}
		defer c.Close()
		clients[i] = c
	}

	// The burst: every client fires PerClient packets at the same
	// moment (barrier-released goroutines — the paper's "several
	// emulation clients generate packets simultaneously").
	var start sync.WaitGroup
	start.Add(1)
	var done sync.WaitGroup
	for i, c := range clients {
		done.Add(1)
		go func(i int, c *core.Client) {
			defer done.Done()
			start.Wait()
			for k := 0; k < cfg.PerClient; k++ {
				c.Send(wire.Packet{Dst: 1000, Channel: 1, Flow: 7, Seq: uint32(k)})
			}
		}(i, c)
	}
	start.Done()
	done.Wait()

	// Wait for the serial ingress to chew through the burst.
	want := n * cfg.PerClient
	waitUntil(10*time.Second, time.Millisecond, func() bool {
		return store.PacketCount() >= want
	})

	var sum, max time.Duration
	count := 0
	store.ForEachPacket(func(p record.Packet) {
		if p.Kind != record.PacketIn || p.Flow != 7 {
			return
		}
		// At = serial receive stamp; Stamp = parallel client stamp.
		e := p.At.Sub(p.Stamp)
		if e < 0 {
			e = 0
		}
		sum += e
		if e > max {
			max = e
		}
		count++
	})
	pt := SerialErrorPoint{Clients: n, Packets: count, MaxError: max,
		Overhead: overheadFrom(reg, srv)}
	if count > 0 {
		pt.MeanError = sum / time.Duration(count)
	}
	return pt, nil
}
