package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline/mobiemu"
	"repro/internal/routing"
)

func TestTable1Rendering(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"PoEm", "JEmu", "MobiEmu", "multi-radio environment"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
	// PoEm's row must be all-ok; count per line.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "PoEm") && strings.Contains(line, " x") {
			t.Errorf("PoEm row has a missing feature:\n%s", line)
		}
	}
}

func TestPoEmFeaturesAllTrue(t *testing.T) {
	for k, v := range PoEmFeatures() {
		if !v {
			t.Errorf("feature %q false", k)
		}
	}
}

// The headline proof-of-concept test: Table 2's three-step routing
// table evolution, end to end through the real emulator.
func TestTable2Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	res, err := Table2(&buf, Table2Config{Scale: 200, Beacon: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("steps: %d", len(res.Steps))
	}
	s1, s2, s3 := res.Steps[0], res.Steps[1], res.Steps[2]
	// Step 1: VMN1 reaches all four other VMNs, 2 and 3 directly.
	if len(s1.Entries) < 4 {
		t.Errorf("step 1 entries: %v", s1.Entries)
	}
	direct3 := false
	for _, e := range s1.Entries {
		if e.Dst == 3 && e.Next == 3 {
			direct3 = true
		}
	}
	if !direct3 {
		t.Errorf("step 1: no direct route to VMN3: %v", s1.Entries)
	}
	// Step 2: the direct route to VMN3 is gone (shrunken range).
	for _, e := range s2.Entries {
		if e.Dst == 3 && e.Next == 3 {
			t.Errorf("step 2: direct route to VMN3 survived: %v", s2.Entries)
		}
	}
	// Step 3: VMN1 is alone on channel 2 → empty table.
	if len(s3.Entries) != 0 {
		t.Errorf("step 3 entries: %v", s3.Entries)
	}
	out := buf.String()
	if !strings.Contains(out, "# of Routing Entries") {
		t.Errorf("rendering:\n%s", out)
	}
}

// The headline performance evaluation: Figure 10's loss curves through
// the real emulator, compared against the analytic expectation.
func TestFigure10Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	res, err := Figure10(&buf, Figure10Config{
		Duration: 20 * time.Second,
		Scale:    40,
		RateBps:  800e3, // 100 pkt/s keeps the test light; shape is rate-free
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent < 1500 {
		t.Fatalf("sent only %d packets", res.Sent)
	}
	if len(res.Experiment) < 15 {
		t.Fatalf("experiment series too short: %d windows", len(res.Experiment))
	}
	// Shape 1: loss starts around the two-hop value at r=120 (≈0.72).
	if first := res.Experiment[0].V; first < 0.5 || first > 0.9 {
		t.Errorf("initial loss %v, want ≈0.72", first)
	}
	// Shape 2: the curve rises (relay moving away) and saturates at 1
	// after the relay leaves range (t ≈ 16 s).
	last := res.Experiment[len(res.Experiment)-1].V
	if last < 0.97 {
		t.Errorf("final loss %v, want ≈1 after the relay left range", last)
	}
	// Shape 3: experiment tracks the expected real-time curve.
	if res.MaxDevFromExpected > 0.2 {
		t.Errorf("experiment deviates %v from the expected curve", res.MaxDevFromExpected)
	}
	// Shape 4: the non-real-time curve is visibly different (it drifts).
	if len(res.NonRealTime) <= len(res.ExpectedReal) {
		t.Errorf("serial stamping should stretch the time axis: %d vs %d windows",
			len(res.NonRealTime), len(res.ExpectedReal))
	}
	if !strings.Contains(buf.String(), "non-real-time") {
		t.Error("rendering incomplete")
	}

	// A second run holds the exact model to a tighter bound inside the
	// in-range regime (the relay leaves range at t ≈ 16 s).
	t.Run("ExactModel", func(t *testing.T) {
		if raceEnabled {
			t.Skip("wall-clock-starved under -race")
		}
		exact, err := Figure10(nil, Figure10Config{
			Duration: 14 * time.Second,
			Scale:    40,
			RateBps:  800e3,
			Seed:     5,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The run is real time at scale 40: a failure prints the
		// scheduler's evidence, so a starved host (high fire lag and
		// misses) reads apart from a model that changed (both low).
		if exact.MaxDevFromExpected > 0.15 {
			t.Errorf("exact-model deviation %.3f implausibly large (fire-lag p99 %v, deadline-miss ratio %.4f)",
				exact.MaxDevFromExpected, exact.Overhead.FireLagP99, exact.Overhead.MissRatio)
		}
	})
}

func TestSerialErrorGrowsWithClients(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	res, err := SerialError(&buf, SerialErrorConfig{
		ClientCounts: []int{2, 8, 24},
		PerClient:    4,
		IngressDelay: 300 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points: %d", len(res.Points))
	}
	small, big := res.Points[0], res.Points[2]
	// Mean error is the robust signal (max is one scheduler stall away
	// from noise on a loaded box): theory says ≈ N·k·s/2, i.e. 12×
	// between 2 and 24 clients; demand at least 2× growth.
	if big.MeanError < 2*small.MeanError {
		t.Errorf("serial mean error did not grow: %v → %v", small.MeanError, big.MeanError)
	}
	// The absolute scale: 24 clients × 4 pkts × 300 µs ≈ 29 ms of smear.
	if big.MaxError < 5*time.Millisecond {
		t.Errorf("max error %v implausibly small", big.MaxError)
	}
}

func TestClockSyncSweep(t *testing.T) {
	var buf bytes.Buffer
	res := ClockSync(&buf, 10*time.Millisecond)
	if len(res.Points) != 6 {
		t.Fatalf("points: %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Error != p.Predicted {
			t.Errorf("asymmetry %v: error %v ≠ predicted %v", p.Asymmetry, p.Error, p.Predicted)
		}
	}
	// Symmetric delays → zero error; full asymmetry → RTT/2.
	if res.Points[0].Error != 0 {
		t.Errorf("symmetric error %v", res.Points[0].Error)
	}
	if res.Points[5].Error != 5*time.Millisecond {
		t.Errorf("fully asymmetric error %v", res.Points[5].Error)
	}
}

func TestNeighTableSweep(t *testing.T) {
	var buf bytes.Buffer
	res := NeighTable(&buf, []int{32, 128}, []int{4}, 100)
	if len(res.Points) != 2 {
		t.Fatalf("points: %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.UnifiedCost <= p.IndexedCost {
			t.Errorf("n=%d: unified (%d) not worse than indexed (%d)",
				p.Nodes, p.UnifiedCost, p.IndexedCost)
		}
	}
	// The gap widens with network size — the §4.2 scalability claim.
	if res.Points[1].Ratio <= res.Points[0].Ratio {
		t.Errorf("ratio did not grow with n: %v → %v", res.Points[0].Ratio, res.Points[1].Ratio)
	}
}

func TestStalenessSweep(t *testing.T) {
	var buf bytes.Buffer
	cfg := mobiemu.Config{Stations: 8, Heterogeneity: 2, Seed: 1}
	res := Staleness(&buf, cfg, []float64{10, 600}, 3*time.Second)
	if len(res.Results) != 2 {
		t.Fatal("sweep incomplete")
	}
	if res.Results[1].MeanLag <= res.Results[0].MeanLag {
		t.Error("staleness did not grow with update rate")
	}
	if !strings.Contains(buf.String(), "diverged") {
		t.Error("rendering incomplete")
	}
}

func TestLinkCurves(t *testing.T) {
	var buf bytes.Buffer
	if err := LinkCurves(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "0.100") || !strings.Contains(out, "0.900") {
		t.Errorf("loss endpoints missing:\n%s", out)
	}
	if !strings.Contains(out, "11.00") || !strings.Contains(out, "1.00") {
		t.Errorf("bandwidth endpoints missing:\n%s", out)
	}
}

func TestRenderTable(t *testing.T) {
	out := renderTable([]routing.Entry{{Dst: 2, Next: 2, Channel: 1, Metric: 1}})
	if !strings.Contains(out, "# of Routing Entries: 1") || !strings.Contains(out, "2 -> 2") {
		t.Errorf("renderTable:\n%s", out)
	}
}

// E13: the four protocols on the same mobile scenario — the trade-off
// shape must hold: flooding maximizes delivery at maximal data cost;
// table-driven protocols pay control overhead instead; on-demand
// discovery costs delay.
func TestProtocolComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	if raceEnabled {
		// Five compressed-time emulations cannot keep real-time pace
		// under the ~10× race-detector slowdown; the same code paths
		// are race-covered by the smaller core/e2e tests.
		t.Skip("wall-clock-starved under -race")
	}
	var buf bytes.Buffer
	res, err := Protocols(&buf, ProtocolsConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]ProtocolRow{}
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	if len(rows) != 5 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Flooding delivers at least as well as everything else...
	for _, name := range []string{"hybrid", "dsdv", "aodv", "lsr"} {
		if rows[name].PDR > rows["flooding"].PDR+1e-9 {
			t.Errorf("%s PDR %v beats flooding %v", name, rows[name].PDR, rows["flooding"].PDR)
		}
	}
	// ...but burns far more data transmissions per delivery.
	if rows["flooding"].DataPackets < 3*rows["hybrid"].DataPackets {
		t.Errorf("flooding data-tx %d not ≫ hybrid %d",
			rows["flooding"].DataPackets, rows["hybrid"].DataPackets)
	}
	// Table-driven protocols actually deliver under mobility.
	for _, name := range []string{"hybrid", "dsdv", "aodv", "lsr"} {
		if rows[name].PDR < 0.5 {
			t.Errorf("%s PDR %v implausibly low", name, rows[name].PDR)
		}
	}
	// Beacon-driven protocols pay periodic control overhead; flooding
	// pays none.
	if rows["flooding"].CtrlPackets != 0 {
		t.Errorf("flooding sent control packets: %d", rows["flooding"].CtrlPackets)
	}
	if rows["hybrid"].CtrlPackets == 0 || rows["dsdv"].CtrlPackets == 0 {
		t.Error("beacon protocols sent no control traffic")
	}
	// Link-state floods every LSA network-wide: the costliest control
	// plane of the table-driven protocols.
	if rows["lsr"].CtrlPackets <= rows["dsdv"].CtrlPackets {
		t.Errorf("LSR control %d not above DSDV %d",
			rows["lsr"].CtrlPackets, rows["dsdv"].CtrlPackets)
	}
	if !strings.Contains(buf.String(), "overhead") {
		t.Error("rendering incomplete")
	}
}

// E14: multi-channel capacity scaling — goodput must track
// min(offered, channels × capacity), the multi-radio motivation from
// the paper's introduction.
func TestCapacityScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	if raceEnabled {
		t.Skip("wall-clock-starved under -race")
	}
	var buf bytes.Buffer
	res, err := Capacity(&buf, CapacityConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points: %+v", res.Points)
	}
	for _, p := range res.Points {
		if p.Utilization < 0.85 || p.Utilization > 1.1 {
			t.Errorf("%d channels: utilization %v off the min(L, K·C) bound", p.Channels, p.Utilization)
		}
	}
	// Strict scaling: doubling channels while capacity-bound doubles
	// goodput.
	if g1, g2 := res.Points[0].DeliveredBps, res.Points[1].DeliveredBps; g2 < 1.8*g1 {
		t.Errorf("2 channels gave %.2f vs %.2f Mb/s — no capacity scaling", g2/1e6, g1/1e6)
	}
	if !strings.Contains(buf.String(), "goodput") {
		t.Error("rendering incomplete")
	}
}

// E15: the "scalable in the number of emulated nodes" feature claim —
// per-packet server cost must not blow up as clients multiply.
func TestScalabilitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	if raceEnabled {
		t.Skip("wall-clock-sensitive under -race")
	}
	var buf bytes.Buffer
	res, err := Scalability(&buf, ScalabilityConfig{
		ClientCounts: []int{4, 16, 48},
		PerClient:    40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points: %+v", res.Points)
	}
	small, big := res.Points[0], res.Points[2]
	// Every packet must arrive (the loop above fails otherwise); the
	// per-packet cost at 12× the clients must stay within an order of
	// magnitude — a serial bottleneck would scale linearly with N.
	if big.PerPacket > 10*small.PerPacket+time.Millisecond {
		t.Errorf("per-packet cost exploded: %v → %v", small.PerPacket, big.PerPacket)
	}
	if !strings.Contains(buf.String(), "per packet") {
		t.Error("rendering incomplete")
	}
}

// A7 smoke: the schedule-storm load run must quiesce with an exactly
// closed conservation ledger at a small population, and the scanner
// must actually coalesce fires (batches shallower than deliveries).
func TestLoadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	res, err := Load(&buf, LoadConfig{
		Sessions: 24, Senders: 8, Packets: 5, Shards: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entered == 0 || res.Entered != res.Forwarded {
		t.Fatalf("ledger: %+v", res)
	}
	if res.Drops != 0 || res.Abandoned != 0 {
		t.Fatalf("storm lost deliveries: %+v", res)
	}
	if res.FireBatches == 0 || res.FireBatches >= res.Forwarded {
		t.Errorf("no fire coalescing: %d batches for %d deliveries", res.FireBatches, res.Forwarded)
	}
	if !strings.Contains(buf.String(), "locks/delivery") {
		t.Error("rendering incomplete")
	}
}
