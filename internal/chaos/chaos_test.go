package chaos

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

var (
	flagSeed = flag.Int64("chaos.seed", -1,
		"run only this seed (the reproduction knob failing runs print)")
	flagSeeds = flag.Int("chaos.seeds", 50,
		"how many consecutive seeds the sweep covers")
	flagEvents = flag.Int("chaos.events", 0,
		"events per scenario (0 = default)")
	flagShards = flag.Int("chaos.shards", 0,
		"server pipeline shard count; 0 sweeps the {1,4} matrix")
)

// shardCounts returns the shard counts the sweep covers: the forced
// flag value, or the {1, 4} matrix (single-shard legacy baseline and a
// cross-shard-routing count).
func shardCounts() []int {
	if *flagShards > 0 {
		return []int{*flagShards}
	}
	return []int{1, 4}
}

// TestChaos is the acceptance sweep: every seed must generate the same
// schedule twice (byte-identical digests) and execute with all five
// invariants holding. The executed digest is a pure function of the
// seed: runSeed holds every shard count's run to the single-shard
// generated digest, so it is byte-identical across shards 1 and 4. A
// failing seed prints a self-contained reproduction report.
func TestChaos(t *testing.T) {
	for _, shards := range shardCounts() {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if *flagSeed >= 0 {
				runSeed(t, *flagSeed, shards)
				return
			}
			n := *flagSeeds
			if testing.Short() && n > 8 {
				n = 8
			}
			for s := 0; s < n; s++ {
				runSeed(t, int64(s), shards)
			}
		})
	}
}

func runSeed(t *testing.T, seed int64, shards int) {
	t.Helper()
	cfg := Config{Seed: seed, Events: *flagEvents, Shards: shards}
	d1 := GenerateSchedule(cfg).Digest()
	d2 := GenerateSchedule(cfg).Digest()
	if d1 != d2 {
		t.Fatalf("seed %d: schedule generation is nondeterministic: %s vs %s", seed, d1, d2)
	}
	// Shards is an execution parameter: it must not leak into the
	// schedule, so one seed names one scenario at every shard count.
	if single := GenerateSchedule(Config{Seed: seed, Events: *flagEvents, Shards: 1}).Digest(); single != d1 {
		t.Fatalf("seed %d: shard count changed the schedule digest: %s vs %s", seed, d1, single)
	}
	rep := Run(cfg)
	if rep.Digest != d1 {
		t.Fatalf("seed %d: executed schedule digest %s != generated %s", seed, rep.Digest, d1)
	}
	requireHeld(t, rep.Outcome, rep.Failure())
	if rep.Deliveries == 0 {
		t.Fatalf("seed %d: scenario delivered no packets — invariants held vacuously", seed)
	}
}

// TestChaosSelfTest proves the harness has teeth: a deliberately
// corrupted delivery ledger must be detected, reported with the seed,
// and reproduce on the first retry of that seed.
func TestChaosSelfTest(t *testing.T) {
	for _, tc := range []struct {
		name string
		sab  Sabotage
		want string
	}{
		{"flip-seq", SabotageFlipSeq, "final: record"},
		{"swap-order", SabotageSwapOrder, "fifo"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 7, Sabotage: tc.sab}
			rep := Run(cfg)
			if rep.OK() {
				t.Fatalf("sabotage %v went undetected", tc.sab)
			}
			if !strings.Contains(strings.Join(rep.Violations, "\n"), tc.want) {
				t.Errorf("sabotage %v: violations %v do not mention %q", tc.sab, rep.Violations, tc.want)
			}
			failure := rep.Failure()
			if !strings.Contains(failure, "-chaos.seed=7") {
				t.Errorf("failure report does not carry the reproduction seed:\n%s", failure)
			}
			// First retry must reproduce.
			if retry := Run(cfg); retry.OK() {
				t.Fatalf("sabotage %v did not reproduce on retry", tc.sab)
			}
		})
	}
}

// TestGenerateScheduleShape pins the structural guarantees the runner
// relies on: a trailing quiesce, everyone alive at the end, and the
// quarantine channel never listed as touched.
func TestGenerateScheduleShape(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sch := GenerateSchedule(Config{Seed: seed})
		if len(sch.Events) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		last := sch.Events[len(sch.Events)-1]
		if last.Kind != EvQuiesce {
			t.Fatalf("seed %d: schedule ends with %v, want quiesce", seed, last.Kind)
		}
		alive := make(map[int]bool)
		for i := 1; i <= sch.Cfg.Clients; i++ {
			alive[i] = true
		}
		for _, ev := range sch.Events {
			switch ev.Kind {
			case EvKill:
				alive[int(ev.Node)] = false
			case EvReconnect:
				alive[int(ev.Node)] = true
			case EvQuiesce:
				for _, ch := range ev.Touched {
					if ch == QuarantineChannel {
						t.Fatalf("seed %d: quarantine channel marked touched", seed)
					}
				}
			case EvSetRange, EvSwitchChannel:
				if ev.Channel == QuarantineChannel || ev.NewCh == QuarantineChannel {
					t.Fatalf("seed %d: event targets the quarantine channel", seed)
				}
			}
		}
		for id, a := range alive {
			if !a {
				t.Fatalf("seed %d: client %d left dead at end of schedule", seed, id)
			}
		}
	}
}

// TestDistinctSeedsDiverge is a sanity check that seeds actually steer
// the generator: twenty consecutive seeds must yield twenty distinct
// schedules.
func TestDistinctSeedsDiverge(t *testing.T) {
	seen := make(map[string]int64)
	for seed := int64(0); seed < 20; seed++ {
		d := GenerateSchedule(Config{Seed: seed}).Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("seeds %d and %d generated identical schedules", prev, seed)
		}
		seen[d] = seed
	}
}
