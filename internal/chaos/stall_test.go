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

// TestStallClock pins the stall clock on the production wall waiter
// the scenarios' scanners sleep on: a frozen clock reads constant while
// the inner clock runs on and parks the waiter, Resume releases it at
// the leap, and a Wake releases a stalled waiter with false.
func TestStallClock(t *testing.T) {
	inner := vclock.NewSystem(1000) // compress so the test stays fast
	clk := vclock.NewStallClock(inner)
	w := vclock.NewWaiter(clk)
	wait := func(target vclock.Time) <-chan bool {
		done := make(chan bool, 1)
		go func() { done <- w.Wait(target) }()
		return done
	}
	result := func(done <-chan bool, what string) bool {
		select {
		case ok := <-done:
			return ok
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: Wait never returned", what)
			return false
		}
	}

	t.Run("frozen clock parks the waiter", func(t *testing.T) {
		clk.Stall()
		frozen := clk.Now()
		done := wait(frozen.Add(time.Millisecond))
		time.Sleep(2 * time.Millisecond)
		if got := clk.Now(); got != frozen {
			t.Fatalf("stalled clock advanced: %v -> %v", frozen, got)
		}
		if inner.Now() <= frozen.Add(time.Millisecond) {
			t.Fatal("inner clock did not run past the target during the stall")
		}
		select {
		case <-done:
			t.Fatal("Wait returned while the clock was stalled")
		default:
		}
		w.Wake()
		result(done, "parked waiter")
		clk.Resume()
	})

	t.Run("Resume releases the waiter at the leap", func(t *testing.T) {
		clk.Stall()
		target := clk.Now().Add(time.Millisecond)
		done := wait(target)
		time.Sleep(2 * time.Millisecond)
		clk.Resume()
		if !result(done, "resumed waiter") {
			t.Fatal("Wait reported woken, not the leap")
		}
		if got := clk.Now(); got < target {
			t.Fatalf("post-resume reading %v below wait target %v", got, target)
		}
	})

	t.Run("Wake releases a stalled waiter with false", func(t *testing.T) {
		clk.Stall()
		defer clk.Resume()
		done := wait(clk.Now().Add(time.Hour))
		w.Wake()
		if result(done, "woken waiter") {
			t.Fatal("woken Wait reported target reached")
		}
	})
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
