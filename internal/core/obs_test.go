package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
)

// TestObservabilityPipeline drives real traffic with every packet
// sampled and checks the full observability surface: registry counters
// match Stats, every stage histogram saw observations, and the flight
// recorder holds at least one complete five-stage packet lifecycle.
func TestObservabilityPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, func(cfg *ServerConfig) {
		cfg.Obs = reg
		cfg.ObsSampleEvery = 1
	})
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(100, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	const n = 20
	for i := 0; i < n; i++ {
		if err := c1.SendTo(2, 1, 0, []byte("trace-me")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		sk.wait(t, 5*time.Second)
	}

	st := r.settle(t, n, n)
	if got := reg.Counter("poem_received_total", "").Load(); got != n {
		t.Errorf("poem_received_total = %d, want %d", got, n)
	}
	if st.Received != n || st.Forwarded != n {
		t.Errorf("Stats = %+v, want %d received+forwarded", st, n)
	}
	for _, name := range []string{"poem_ingest_ns", "poem_dispatch_ns", "poem_enqueue_ns", "poem_send_ns"} {
		h := reg.FindHistogram(name)
		if h == nil {
			t.Fatalf("%s not registered", name)
		}
		if h.Count() == 0 {
			t.Errorf("%s recorded no observations", name)
		}
	}
	// The enqueue stage is observed once per sampled delivery, however
	// the deliveries were grouped into queue pushes.
	if got := reg.FindHistogram("poem_enqueue_ns").Count(); got != n {
		t.Errorf("poem_enqueue_ns observed %d times, want one per sampled delivery (%d)", got, n)
	}

	// The writer records the send stage after the socket send, which
	// races the sink callback — poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var complete int
		ls := fidelity.Lifecycles(r.server.Fidelity().Recorder().Snapshot())
		for _, l := range ls {
			if l.Complete() {
				complete++
				if l.Src != 1 || len(l.Legs) != 1 || l.Legs[0].To != 2 || l.Kept != 1 {
					t.Fatalf("lifecycle misattributed: %+v", l)
				}
				if g := l.Legs[0]; l.Ingest < l.Stamp || l.Resolve < l.Ingest ||
					g.Enqueue < l.Resolve || g.Send < g.Enqueue {
					t.Fatalf("lifecycle stages out of order: %+v", l)
				}
			}
		}
		if complete == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d complete lifecycles of %d sampled packets: %+v", complete, n, ls)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"poem_received_total", "poem_forwarded_total", "poem_dropped_total",
		"poem_noroute_total", "poem_queue_drops_total", "poem_stamp_clamped_total",
		"poem_clients", "poem_scheduled", "poem_clock_seconds",
		"poem_scene_nodes", "poem_scene_view_rebuilds_total", "poem_scene_rows_republished_total",
		"poem_record_packets_total", "poem_record_scenes_total",
		"poem_ingest_ns_p99", "poem_dispatch_ns_bucket", "poem_send_ns_count",
		"poem_flight_recorder_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("NaN in /metrics output")
	}
}

// The enqueue stage times one delivery: a run's push is shared out over
// its entries, so 64 sampled entries pushed at once add 64 observations
// whose sum is at most the wall time of the whole call.
func TestEnqueueStageTimesOneDelivery(t *testing.T) {
	s := &Server{hEnqueue: obs.NewHistogram()}
	q := newSendQueue(128, nil, nil)
	run := make([]outMsg, 64)
	for i := range run {
		run[i].sampled = true
	}
	t0 := time.Now()
	s.pushTimed(q, run)
	wall := time.Since(t0)
	if got := s.hEnqueue.Count(); got != uint64(len(run)) {
		t.Fatalf("poem_enqueue_ns observed %d times, want %d", got, len(run))
	}
	if sum := time.Duration(s.hEnqueue.Sum()); sum > wall {
		t.Errorf("poem_enqueue_ns summed %v over one push of %d entries that took %v", sum, len(run), wall)
	}
}

// TestObsSamplingDisabled pins the negative setting: ObsSampleEvery < 0
// turns stage timing and lifecycle tracing off entirely while counters
// keep running.
func TestObsSamplingDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, func(cfg *ServerConfig) {
		cfg.Obs = reg
		cfg.ObsSampleEvery = -1
	})
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(100, 0), oneRadio(1, 200))
	sk := newSink()
	c1 := r.client(1, nil)
	r.client(2, sk)
	if err := c1.SendTo(2, 1, 0, []byte("untimed")); err != nil {
		t.Fatal(err)
	}
	sk.wait(t, 5*time.Second)
	r.settle(t, 1, 1)
	if got := reg.Counter("poem_received_total", "").Load(); got != 1 {
		t.Errorf("poem_received_total = %d, want 1", got)
	}
	if h := reg.FindHistogram("poem_ingest_ns"); h.Count() != 0 {
		t.Errorf("ingest histogram observed %d with sampling disabled", h.Count())
	}
	if ls := fidelity.Lifecycles(r.server.Fidelity().Recorder().Snapshot()); len(ls) != 0 {
		t.Errorf("%d packet lifecycles recorded with sampling disabled", len(ls))
	}
}
