package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/routing"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// ProtocolsConfig tunes the protocol-comparison experiment (E13): the
// comprehensive "examination of protocol implementations" the paper's
// abstract promises, run across all four protocols in this repository.
type ProtocolsConfig struct {
	Nodes     int           // VMNs in the scene
	Flows     int           // concurrent unicast CBR flows
	Duration  time.Duration // emulated run length
	Scale     float64       // time compression
	Region    float64       // square region side, units
	Range     float64       // radio range
	Speed     float64       // max waypoint speed, units/s
	Beacon    time.Duration // protocol beacon period (emulated)
	PacketGap time.Duration // data inter-packet gap per flow (emulated)
	Seed      int64
	Protocols []string // subset of hybrid|dsdv|aodv|lsr|flooding
}

func (c ProtocolsConfig) withDefaults() ProtocolsConfig {
	if c.Nodes <= 0 {
		c.Nodes = 12
	}
	if c.Flows <= 0 {
		c.Flows = 4
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.Region <= 0 {
		c.Region = 600
	}
	if c.Range <= 0 {
		c.Range = 250
	}
	if c.Speed <= 0 {
		c.Speed = 10
	}
	if c.Beacon <= 0 {
		c.Beacon = time.Second
	}
	if c.PacketGap <= 0 {
		c.PacketGap = 500 * time.Millisecond
	}
	if len(c.Protocols) == 0 {
		c.Protocols = []string{"hybrid", "dsdv", "aodv", "lsr", "flooding"}
	}
	return c
}

// ProtocolRow is one protocol's measured performance.
type ProtocolRow struct {
	Name          string
	Sent          int     // application packets handed to SendData
	Delivered     int     // unique arrivals at the addressed node
	PDR           float64 // packet delivery ratio
	CtrlPackets   int     // routing-control transmissions at the server
	DataPackets   int     // data transmissions at the server
	OverheadRatio float64 // control / data transmissions
	MeanDelay     time.Duration
}

// ProtocolsResult is the comparison table.
type ProtocolsResult struct {
	Rows []ProtocolRow
}

// NewProtocol constructs a protocol instance by name.
func NewProtocol(name string, cfg routing.Config) (routing.Protocol, error) {
	switch name {
	case "hybrid":
		return routing.NewHybrid(cfg), nil
	case "dsdv":
		return routing.NewDSDV(cfg), nil
	case "aodv":
		return routing.NewAODV(cfg), nil
	case "flooding":
		return routing.NewFlooding(cfg), nil
	case "lsr":
		return routing.NewLSR(cfg), nil
	default:
		return nil, fmt.Errorf("experiment: unknown protocol %q", name)
	}
}

// Protocols runs the same mobile scenario under each protocol and
// tabulates delivery ratio, control overhead and delay.
func Protocols(w io.Writer, cfg ProtocolsConfig) (ProtocolsResult, error) {
	cfg = cfg.withDefaults()
	var res ProtocolsResult
	for _, name := range cfg.Protocols {
		row, err := protocolOnce(name, cfg)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	if w != nil {
		fmt.Fprintf(w, "Protocol comparison: %d nodes, %d flows, waypoint ≤%g u/s, %v emulated\n",
			cfg.Nodes, cfg.Flows, cfg.Speed, cfg.Duration)
		fmt.Fprintf(w, "%-9s %6s %10s %6s %8s %8s %10s %12s\n",
			"protocol", "sent", "delivered", "PDR", "ctrl-tx", "data-tx", "overhead", "mean delay")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%-9s %6d %10d %5.1f%% %8d %8d %9.2fx %12v\n",
				r.Name, r.Sent, r.Delivered, 100*r.PDR, r.CtrlPackets, r.DataPackets,
				r.OverheadRatio, r.MeanDelay.Round(time.Millisecond))
		}
	}
	return res, nil
}

func protocolOnce(name string, cfg ProtocolsConfig) (ProtocolRow, error) {
	clk := vclock.NewSystem(cfg.Scale)
	sc := scene.New(radio.NewIndexed(cfg.Range), clk, cfg.Seed)
	store := record.NewStore()
	// A mildly lossy medium keeps the comparison honest without
	// swamping it: 2 % close-range loss rising to 30 % at the edge.
	loss, err := linkmodel.NewDistanceLoss(0.02, 0.3, cfg.Range/2, cfg.Range)
	if err != nil {
		return ProtocolRow{}, err
	}
	if err := sc.SetDefaultLinkModel(linkmodel.Model{
		Loss:      loss,
		Bandwidth: linkmodel.ConstantBandwidth{Bps: 11e6},
		Delay:     linkmodel.ConstantDelay{D: 2 * time.Millisecond},
	}); err != nil {
		return ProtocolRow{}, err
	}
	srv, err := core.NewServer(core.ServerConfig{
		Clock: clk, Scene: sc, Store: store, Seed: cfg.Seed,
		TickStep: 200 * time.Millisecond,
	})
	if err != nil {
		return ProtocolRow{}, err
	}
	lis := transport.NewInprocListener()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-serveDone }()

	region := geom.R(0, 0, cfg.Region, cfg.Region)
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make(map[radio.NodeID]routing.Protocol, cfg.Nodes)
	var nodes []*Node
	for i := 1; i <= cfg.Nodes; i++ {
		id := radio.NodeID(i)
		pos := geom.V(rng.Float64()*cfg.Region, rng.Float64()*cfg.Region)
		if err := sc.AddNode(id, pos, []radio.Radio{{Channel: 1, Range: cfg.Range}}); err != nil {
			return ProtocolRow{}, err
		}
		p, err := NewProtocol(name, routing.Config{EntryTTLTicks: 3, HorizonHops: 3})
		if err != nil {
			return ProtocolRow{}, err
		}
		n, err := StartNode(id, lis.Dialer(), clk, p, clk, cfg.Beacon)
		if err != nil {
			return ProtocolRow{}, err
		}
		defer n.Stop()
		protos[id] = p
		nodes = append(nodes, n)
		sc.SetMobility(id, mobility.Waypoint{
			MinSpeed: 1, MaxSpeed: cfg.Speed,
			Pause:  mobility.Constant(2),
			Region: region,
		})
	}
	// Warm-up: let proactive protocols converge before traffic starts.
	warm := 4 * cfg.Beacon
	time.Sleep(time.Duration(float64(warm) / cfg.Scale))

	// Traffic: Flows random (src,dst) pairs, each a low-rate CBR using
	// the protocol's SendData (so discovery, repair and relaying all
	// run for real). Flow labels start at 1; sequence numbers per flow.
	type flowSpec struct {
		src, dst radio.NodeID
		flow     uint16
	}
	var flows []flowSpec
	for f := 0; f < cfg.Flows; f++ {
		src := radio.NodeID(1 + rng.Intn(cfg.Nodes))
		dst := radio.NodeID(1 + rng.Intn(cfg.Nodes))
		for dst == src {
			dst = radio.NodeID(1 + rng.Intn(cfg.Nodes))
		}
		flows = append(flows, flowSpec{src: src, dst: dst, flow: uint16(f + 1)})
	}
	start := clk.Now()
	end := start.Add(cfg.Duration)
	sent := 0
	sendTimes := make(map[uint32]vclock.Time) // (flow<<16|seq) → send time
	seq := uint32(0)
	pace := vclock.NewWaiter(clk) // never woken: every Wait reaches its deadline
	for now := start; now < end; now = now.Add(cfg.PacketGap) {
		pace.Wait(now)
		for _, f := range flows {
			seq++
			sendTimes[uint32(f.flow)<<16|seq&0xFFFF] = clk.Now()
			if err := protos[f.src].SendData(f.dst, f.flow, seq, []byte("payload")); err == nil || err == routing.ErrNoRoute {
				sent++
			}
		}
	}
	// Drain.
	time.Sleep(time.Duration(float64(2*time.Second)/cfg.Scale) + 50*time.Millisecond)

	row := ProtocolRow{Name: name, Sent: sent}
	var delaySum time.Duration
	var delayN int
	for _, f := range flows {
		for _, d := range protos[f.dst].Deliveries() {
			if d.Flow != f.flow {
				continue
			}
			row.Delivered++
			if t0, ok := sendTimes[uint32(d.Flow)<<16|d.Seq&0xFFFF]; ok {
				delaySum += d.At.Sub(t0)
				delayN++
			}
		}
	}
	if sent > 0 {
		row.PDR = float64(row.Delivered) / float64(sent)
	}
	if delayN > 0 {
		row.MeanDelay = delaySum / time.Duration(delayN)
	}
	store.ForEachPacket(func(p record.Packet) {
		if p.Kind != record.PacketIn {
			return
		}
		if p.Flow == 0xFFFF {
			row.CtrlPackets++
		} else {
			row.DataPackets++
		}
	})
	if row.DataPackets > 0 {
		row.OverheadRatio = float64(row.CtrlPackets) / float64(row.DataPackets)
	}
	return row, nil
}
