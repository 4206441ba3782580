package chaos

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestClockStall is the fidelity monitor's end-to-end acceptance: a
// frozen-then-leaping emulation clock must drive the health state to at
// least degraded, count the late pile as deadline misses, and capture a
// flight-recorder dump — with packet conservation untouched (a stall
// delays traffic, it never loses it). Honors -chaos.seed for
// reproduction, and sweeps seeds 0..n-1 under an explicit
// -chaos.seeds=n; with TestClockStallMultiShard that covers the
// shardCounts() matrix.
func TestClockStall(t *testing.T) {
	for _, seed := range seedsFor(1) {
		rep := RunStall(StallConfig{Seed: seed, Shards: shardCounts()[0]})
		requireHeld(t, rep.Outcome, rep.Failure())
		if rep.Health != "degraded" && rep.Health != "overrun" {
			t.Fatalf("health %q, want degraded or overrun", rep.Health)
		}
		t.Logf("clock stall: health=%s breaches=%d misses=%d dump=%d events",
			rep.Health, rep.Breaches, rep.Misses, len(rep.Dump.Events))
	}
}

// TestClockStallMultiShard repeats the scenario on a sharded pipeline:
// the stall hits every shard's scanner, and the server-wide state is
// the worst shard's.
func TestClockStallMultiShard(t *testing.T) {
	counts := shardCounts()
	for _, seed := range seedsFor(2) {
		rep := RunStall(StallConfig{Seed: seed, Shards: counts[len(counts)-1]})
		requireHeld(t, rep.Outcome, rep.Failure())
	}
}

// TestStallClock pins the clock wrapper itself: frozen reads are
// constant while the inner clock runs on, the post-resume reading leaps
// to the inner clock, and a waiter parked behind the freeze is released
// by the leap.
func TestStallClock(t *testing.T) {
	inner := vclock.NewSystem(1000) // compress so the test stays fast
	clk := NewStallClock(inner)
	if clk.Now() < 0 {
		t.Fatal("negative reading")
	}
	clk.Stall()
	frozen := clk.Now()
	time.Sleep(2 * time.Millisecond)
	if got := clk.Now(); got != frozen {
		t.Fatalf("stalled clock advanced: %v -> %v", frozen, got)
	}
	if inner.Now() <= frozen {
		t.Fatal("inner clock did not run during the stall")
	}

	// A waiter behind the freeze parks until Resume, then observes the
	// leap and returns.
	target := frozen.Add(time.Millisecond)
	done := make(chan bool, 1)
	go func() { done <- clk.Wait(target, nil) }()
	select {
	case <-done:
		t.Fatal("Wait returned while the clock was stalled")
	case <-time.After(2 * time.Millisecond):
	}
	clk.Resume()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait reported cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never observed the post-resume leap")
	}
	if got := clk.Now(); got < target {
		t.Fatalf("post-resume reading %v below wait target %v", got, target)
	}

	// Cancellation releases a stalled waiter without reaching the target.
	clk.Stall()
	cancel := make(chan struct{})
	go func() { done <- clk.Wait(clk.Now().Add(time.Hour), cancel) }()
	close(cancel)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled Wait reported target reached")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Wait never returned")
	}
	clk.Resume()
}

// TestChaosDigestUnaffectedByMonitoring pins RTTolerance as a pure
// execution parameter: one seed generates and executes the identical
// schedule digest whether the fidelity monitor judges deliveries
// against the default tolerance or a lax 10 s one — how the pipeline is
// observed never perturbs the scenario.
func TestChaosDigestUnaffectedByMonitoring(t *testing.T) {
	seed := int64(3)
	const lax = 10 * time.Second
	dDefault := GenerateSchedule(Config{Seed: seed}).Digest()
	dLax := GenerateSchedule(Config{Seed: seed, RTTolerance: lax}).Digest()
	if dDefault != dLax {
		t.Fatalf("RTTolerance leaked into the schedule digest: %s vs %s", dDefault, dLax)
	}
	for _, tol := range []time.Duration{0, lax} {
		rep := Run(Config{Seed: seed, RTTolerance: tol})
		if !rep.OK() {
			t.Fatal(rep.Failure())
		}
		if rep.Digest != dDefault {
			t.Fatalf("rt-tolerance %v: run digest %s != generated %s", tol, rep.Digest, dDefault)
		}
	}
}
