package main

import "time"

// metricSpec names one metric; BENCHMARK.json repeats exactly these
// (TestBenchmarkJSONMatchesSpec holds the two together).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that is a regression
}

// endToEnd are the figures a user of the emulator sees. failed_ratio is
// measured and compared too (any rise is a regression) but is exactly 0
// on a healthy run, so it travels as the result's attempted/failed
// counts instead of as a bounded metric.
var endToEnd = []metricSpec{
	{"deliveries_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_delivery", "us", "lower", 0.25},
	{"lateness_p99_us", "us", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricSpec{
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.trunk_encode_ns_per_entry", Unit: "ns", Better: "lower"},

	{Name: "mbuf.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "mbuf.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mbuf.live_after_close", Unit: "count", Better: "lower"},

	{Name: "transport.tcp_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.pipe_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.flush_batch_mean", Unit: "count", Better: "higher"},
	{Name: "transport.trunk_send_ns_per_batch", Unit: "ns", Better: "lower"},

	{Name: "scene.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "scene.neighbors_per_dispatch", Unit: "count", Better: "higher"},
	{Name: "linkmodel.evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "scene.move_node_us", Unit: "us", Better: "lower"},
	{Name: "scene.set_range_us", Unit: "us", Better: "lower"},
	{Name: "scene.tick_us_p50", Unit: "us", Better: "lower"},
	{Name: "scene.view_rebuilds", Unit: "count", Better: "lower"},
	{Name: "scene.add_nodes_ms", Unit: "ms", Better: "lower"},

	{Name: "sched.push_pop_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "sched.fire_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "sched.fire_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "sched.fire_batch_mean", Unit: "count", Better: "higher"},
	{Name: "sched.locks_per_delivery", Unit: "ratio", Better: "lower"},
	{Name: "sched.wakeups_per_s", Unit: "1/s", Better: "lower"},
	{Name: "sched.spurious_wakeup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sched.kick_elide_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.depth_max", Unit: "count", Better: "lower"},

	{Name: "vclock.now_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.wait_overshoot_p50_us", Unit: "us", Better: "lower"},
	{Name: "vclock.wait_overshoot_p99_us", Unit: "us", Better: "lower"},
	{Name: "vclock.sync_offset_abs_us", Unit: "us", Better: "lower"},

	{Name: "core.dial_us_per_session", Unit: "us", Better: "lower"},
	{Name: "core.client_send_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.send_block_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.fire_to_client_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.fire_to_client_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.ingest_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.dispatch_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.enqueue_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.send_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.queue_drops", Unit: "count", Better: "lower"},
	{Name: "core.abandoned", Unit: "count", Better: "lower"},
	{Name: "core.stamp_clamped", Unit: "count", Better: "lower"},
	{Name: "core.sendq_depth_max", Unit: "count", Better: "lower"},
	{Name: "core.deadline_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.goroutines_peak", Unit: "count", Better: "lower"},

	{Name: "cluster.remote_entries", Unit: "count", Better: "higher"},
	{Name: "cluster.recv_entries", Unit: "count", Better: "higher"},
	{Name: "cluster.trunk_dropped", Unit: "count", Better: "lower"},
	{Name: "cluster.staleness_us", Unit: "us", Better: "lower"},
	{Name: "cluster.cpu_us_per_delivery_delta", Unit: "us", Better: "lower"},

	{Name: "record.add_packet_ns", Unit: "ns", Better: "lower"},
	{Name: "record.packets", Unit: "count", Better: "higher"},

	{Name: "gateway.cpu_us_per_datagram", Unit: "us", Better: "lower"},
	{Name: "gateway.lateness_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.accepted", Unit: "count", Better: "higher"},
	{Name: "gateway.shed", Unit: "count", Better: "lower"},
	{Name: "gateway.egress_dropped", Unit: "count", Better: "lower"},
	{Name: "gateway.late", Unit: "count", Better: "lower"},

	{Name: "proc.allocs_per_delivery", Unit: "ratio", Better: "lower"},
	{Name: "proc.bytes_per_delivery", Unit: "B", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "client.lateness_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.lateness_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.lateness_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.early_ratio", Unit: "ratio", Better: "lower"},
	{Name: "gen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// numFlows is the number of sender goroutines, one flow each: the host
// has two cores, and a generator wider than the host would measure the
// Go scheduler.
const numFlows = 2

// workload is one traffic mix. Every link model is ConstantDelay +
// ConstantBandwidth, so a packet's due time is computable from outside
// the server: stamp + Delay + (28+len)·8/Bps.
type workload struct {
	Name string
	Why  string

	TCP   bool // TCP loopback listener (else in-process pipes)
	Trunk bool // two federated servers; the flows cross the trunk
	Side  int  // nodes sit on a Side×Side grid, 10 apart, range 35

	Broadcast bool // senders broadcast (else unicast to their Fan nearest neighbours in rotation)
	Fan       int  // unicast: receivers per flow
	// Window is how many packets the flow's slowest receiver may lag its
	// sender. It is a closed loop's in-flight bound; on the open loop it
	// is a guard far above the normal in-flight count, so that a host
	// freeze pauses the generator instead of overflowing send queues.
	Window int
	Rate   int   // open loop: packets/s per flow; 0 = closed loop, as fast as Window allows
	Sizes  []int // payload sizes the seeded sequence draws from

	Loss  float64
	Bps   float64
	Delay time.Duration

	// Record attaches a record.Store, as poemd does — in the traced pass
	// only: the store's one growing slice stalls every recorder for tens
	// of milliseconds each time it is reallocated, which made the
	// end-to-end lateness swing 5–22 ms from run to run (README, Findings).
	Record bool
	Static bool // no mobility: TickStep 10 s keeps the ticker out of the way
	Churn  bool // random-walk walkers plus an operator goroutine

	// LatEvery samples one delivery in N per receiver for lateness; the
	// in-process storms deliver millions a second and one clock read per
	// delivery would be a tenth of what is being measured.
	LatEvery uint32
	// SetupRuns is how many times the rig is built (each in its own
	// process) for the setup_s median.
	SetupRuns int
}

var workloads = []workload{
	{
		Name: "storm_inproc",
		Why:  "16384 in-proc sessions, 2 broadcasters with ~36 neighbours: core dispatch, sched and send queues do the work, wire and sockets none; set-up carries registration",
		Side: 128, Broadcast: true, Window: 128, Sizes: []int{64},
		Bps: 1e9, Delay: time.Millisecond, Static: true, LatEvery: 16, SetupRuns: 5,
	},
	{
		Name: "unicast_tcp",
		Why:  "same server over TCP loopback, 2 saturating unicast flows: wire codec, mbuf, transport read/writev and syscalls dominate, dispatch is one row",
		TCP:  true, Side: 8, Fan: 4, Window: 960, Sizes: []int{64},
		Bps: 1e9, Delay: time.Millisecond, LatEvery: 1, SetupRuns: 25,
	},
	{
		Name: "paced_mixed_tcp",
		Why:  "open loop at 2x15000 packets/s to 32 receivers each, mixed sizes, 10% loss: the idle-scanner, batch-of-one path where lateness is the user-visible accuracy",
		TCP:  true, Side: 16, Fan: 32, Rate: 15000, Window: 2048, Sizes: []int{64, 512, 1400, 4096},
		Loss: 0.10, Bps: 100e6, Delay: 5 * time.Millisecond, Record: true, LatEvery: 1, SetupRuns: 25,
	},
	{
		Name: "churn_inproc",
		Why:  "storm traffic on 2304 sessions while walkers and an operator move the scene: lock-free dispatch reads compete with view rebuilds and publishes",
		Side: 48, Broadcast: true, Window: 128, Sizes: []int{64},
		Bps: 1e9, Delay: time.Millisecond, Churn: true, LatEvery: 16, SetupRuns: 5,
	},
	{
		Name: "trunk_tcp",
		Why:  "unicast_tcp across two federated servers: the difference is the cost of core/cluster, transport.Trunk and wire.TrunkBatch",
		TCP:  true, Trunk: true, Side: 8, Fan: 4, Window: 960, Sizes: []int{64},
		Bps: 1e9, Delay: time.Millisecond, LatEvery: 1, SetupRuns: 25,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// packetHeader is the over-the-air header wire.Packet.Size adds to the
// payload for the bandwidth term.
const packetHeader = 28

// linkNs is the emulated one-hop latency of a payload of n bytes.
func (w *workload) linkNs(n int) int64 {
	return int64(w.Delay) + int64(float64(packetHeader+n)*8/w.Bps*float64(time.Second))
}

// timing holds the phase lengths; quick() shrinks them for the smoke
// test.
type timing struct {
	Warmup    time.Duration
	Window    time.Duration // throughput window
	Windows   int
	LatWindow time.Duration // lateness window; divides Window. Short, so that most windows are free of host stalls
	Probe     int           // iterations of each layer probe
	Gateway   time.Duration // gateway probe length
	TokenWait time.Duration // a token not back by then is reclaimed
}

func fullTiming(windows int) timing {
	return timing{
		Warmup: 2 * time.Second, Window: time.Second, Windows: windows, LatWindow: 10 * time.Millisecond,
		Probe: 200000, Gateway: 4 * time.Second, TokenWait: 2 * time.Second,
	}
}

// quick shrinks a workload and its phases for the in-process smoke
// test: same code paths, tiny populations.
func quick(w workload) (workload, timing) {
	if w.Side > 20 {
		w.Side = 20
	}
	if w.Rate > 2000 {
		w.Rate = 2000
	}
	if w.Rate == 0 && w.Window > 64 {
		w.Window = 64
	}
	w.LatEvery = 1
	return w, timing{
		Warmup: 200 * time.Millisecond, Window: 200 * time.Millisecond, Windows: 2, LatWindow: 10 * time.Millisecond,
		Probe: 2000, Gateway: 300 * time.Millisecond, TokenWait: 2 * time.Second,
	}
}
