package core

// End-to-end tests of the real-time fidelity monitor's core wiring:
// the fire callback feeding per-shard deadline accounting, the health
// surface on Stats/ShardStats, flight-recorder events from the queue-
// drop and view-rebuild paths, and deterministic deadline misses under
// a manual clock.

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestFidelityWiring(t *testing.T) {
	forEachShardCount(t, testFidelityWiring)
}

func testFidelityWiring(t *testing.T, shards int) {
	reg := obs.NewRegistry()
	r := newRig(t, func(c *ServerConfig) {
		c.Obs = reg
		c.Shards = shards
		c.RTWindow = 8
	})
	r.scene.SetLinkModel(1, uniformModel(time.Millisecond))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	r.client(2, sk)
	c1 := r.client(1, nil)
	for i := 1; i <= 4; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		sk.wait(t, 5*time.Second)
	}

	fid := r.server.Fidelity()
	if fid.Tolerance() != fidelity.DefaultTolerance {
		t.Fatalf("tolerance %v, want default %v", fid.Tolerance(), fidelity.DefaultTolerance)
	}
	if h := r.server.Stats().Health; h == "" {
		t.Fatal("ServerStats.Health empty")
	}
	var fired uint64
	for _, sh := range r.server.ShardStats() {
		if sh.Health == "" {
			t.Fatalf("shard %d: empty Health", sh.Shard)
		}
		fired += r.server.fid.Shard(sh.Shard).Fired()
	}
	if fired < 4 {
		t.Fatalf("fidelity accounted %d fired deliveries, want ≥ 4", fired)
	}
	var haveFire bool
	for _, ev := range fid.Recorder().Snapshot() {
		if ev.Kind == fidelity.EvBatchFire {
			haveFire = true
		}
	}
	if !haveFire {
		t.Fatal("flight recorder holds no batch-fire events after traffic")
	}

	// The metric families land on the shared registry…
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"poem_health ", "poem_health_breaches_total",
		`poem_shard_deadline_miss_total{shard="0"}`,
		`poem_shard_deadline_lag_ns_bucket{shard="0",le=`,
		`poem_shard_health{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// …and /healthz answers with the state JSON.
	rec := httptest.NewRecorder()
	fid.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz: %d (state %v)", rec.Code, fid.State())
	}
	var health struct {
		State  string              `json:"state"`
		Shards []fidelity.Snapshot `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz JSON: %v\n%s", err, rec.Body.String())
	}
	if health.State == "" || len(health.Shards) != r.server.Shards() {
		t.Fatalf("/healthz report: %+v", health)
	}
}

// TestFidelityDisabled pins that the monitor cannot be configured off:
// the negative tolerance that used to disable it is rejected the way a
// negative shard count is, and a default server always has a monitor.
func TestFidelityDisabled(t *testing.T) {
	sc, clk := shardTestScene()
	if _, err := NewServer(ServerConfig{Clock: clk, Scene: sc, RTTolerance: -1}); err == nil {
		t.Error("negative RTTolerance accepted")
	}
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Fidelity() == nil {
		t.Error("Fidelity() is nil on a default server")
	}
}

// TestFidelityDeadlineMissManualClock drives a deterministic miss: a
// frozen manual clock piles deliveries into the schedule, then one
// giant step fires them hopelessly late — misses count, the shard
// escalates, the breach dumps the recorder.
func TestFidelityDeadlineMissManualClock(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Clock: clk, Scene: sc, Seed: 1, Obs: reg, Shards: 1,
		RTTolerance: time.Millisecond, RTWindow: 4,
		TickStep: time.Hour, // keep mobility ticks off the manual clock
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := transport.NewInprocListener()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-done }()

	sc.SetLinkModel(1, uniformModel(time.Millisecond))
	sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	sc.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	sk := newSink()
	c2, err := Dial(ClientConfig{ID: 2, Dial: lis.Dialer(), LocalClock: clk, SyncRounds: 1, OnPacket: sk.on})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c1, err := Dial(ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk, SyncRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	const n = 6 // > RTWindow so the late pile closes a window
	for i := 1; i <= n; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// All due at 1ms emulated; the clock is parked at 0, so nothing may
	// fire yet. Wait for ingest to commit before the step.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Received < n {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d/%d", srv.Stats().Received, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if got := sk.count(); got != 0 {
		t.Fatalf("%d deliveries fired with the clock parked", got)
	}

	clk.Set(vclock.FromSeconds(10)) // 10s late against a 1ms tolerance
	for i := 0; i < n; i++ {
		sk.wait(t, 5*time.Second)
	}

	fid := srv.Fidelity()
	sh := fid.Shard(0)
	if sh.Missed() == 0 {
		t.Fatalf("no misses counted: fired=%d", sh.Fired())
	}
	if fid.State() < fidelity.Degraded {
		t.Fatalf("state %v after a 10s late pile, want ≥ degraded", fid.State())
	}
	if fid.Breaches() == 0 || fid.LastDump() == nil {
		t.Fatalf("breaches=%d dump=%v", fid.Breaches(), fid.LastDump())
	}
	if wm := sh.Watermark(); wm < 9*time.Second {
		t.Fatalf("watermark %v, want ≈10s", wm)
	}
	if st := srv.Stats(); st.Health != fid.State().String() {
		t.Fatalf("Stats.Health %q != monitor state %q", st.Health, fid.State())
	}
	// The typed shard snapshot carries the per-shard figures.
	shs := srv.ShardStats()
	if shs[0].DeadlineMisses == 0 || shs[0].LagWatermark < 9*time.Second || shs[0].Health == "healthy" {
		t.Fatalf("ShardStats fidelity figures: %+v", shs[0])
	}
}

// TestFidelityQueueDropAndRebuildEvents pins the two cold-path flight-
// recorder feeds: a slow-client queue drop and a scene view rebuild
// must both land in the ring.
func TestFidelityQueueDropAndRebuildEvents(t *testing.T) {
	r := newRig(t, func(c *ServerConfig) { c.SendQueueDepth = 8 })
	r.scene.SetLinkModel(1, uniformModel(0))
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	rawSession(t, r.lis, 2) // VMN2 never reads; its queue must overflow
	c1 := r.client(1, nil)

	const flood = 900
	for i := 1; i <= flood; i++ {
		if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.server.Stats().QueueDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.server.Stats().QueueDrops == 0 {
		t.Fatal("flood produced no queue drops")
	}
	// A range change republishes channel 1's dispatch view: one row,
	// VMN1's, which loses VMN2.
	rec := r.server.Fidelity().Recorder()
	var mark uint64
	for _, ev := range rec.Snapshot() {
		mark = max(mark, ev.Seq)
	}
	r.scene.SetRange(1, 1, 40)

	var haveDrop, haveRebuild bool
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case fidelity.EvQueueDrop:
			if ev.A == 2 { // the wedged VMN
				haveDrop = true
			}
		case fidelity.EvViewRebuild:
			if ev.Seq > mark && ev.A == 1 && ev.B == 1 { // channel 1, one row
				haveRebuild = true
			}
		}
	}
	if !haveDrop {
		t.Error("no queue-drop event for VMN 2 in the flight recorder")
	}
	if !haveRebuild {
		t.Error("no one-row view-rebuild event for channel 1 in the flight recorder")
	}
}
