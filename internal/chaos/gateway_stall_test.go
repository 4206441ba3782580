package chaos

import "testing"

// TestGatewayBackpressure is the backpressure policy's deterministic
// acceptance: a clock stall degrades the scene, the gateway sheds real
// ingress drop-newest while the health state is degraded or worse,
// recovers through the hysteresis step-down without manual resets, and
// its egress writer never wedges. Honors -chaos.seed for reproduction,
// and sweeps seeds 0..n-1 under an explicit -chaos.seeds=n.
func TestGatewayBackpressure(t *testing.T) {
	for _, seed := range seedsFor(1) {
		rep := RunGatewayStall(GatewayStallConfig{Seed: seed})
		requireHeld(t, rep.Outcome, rep.Failure())
		if rep.DegradedForwarded != 0 {
			t.Errorf("gate let %d deliveries through while degraded", rep.DegradedForwarded)
		}
		t.Logf("gateway backpressure: peak health=%s shed=%d", rep.PeakHealth, rep.Shed)
	}
}

// TestGatewayBackpressureAblation runs the same arc with the policy
// off (the A9 ablation): the probe pushed while degraded is accepted
// wholesale and fans out into the late scene — the behavior the gate
// exists to prevent.
func TestGatewayBackpressureAblation(t *testing.T) {
	for _, seed := range seedsFor(2) {
		rep := RunGatewayStall(GatewayStallConfig{Seed: seed, DisableBackpressure: true})
		requireHeld(t, rep.Outcome, rep.Failure())
		if rep.Shed != 0 {
			t.Errorf("ablation shed %d datagrams", rep.Shed)
		}
		if rep.DegradedForwarded == 0 {
			t.Error("ablation forwarded nothing while degraded — probe never reached the scene")
		}
		t.Logf("gateway ablation: peak health=%s degraded-forwarded=%d", rep.PeakHealth, rep.DegradedForwarded)
	}
}
