package chaos

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
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
		t.Fatalf("seed %d: scenario delivered no packets — invariants held vacuously\n%s", seed, rep.Failure())
	}
}

// TestChaosFederationTwoPeer runs the seeded schedule on a two-peer
// federation — every event kind, plus partitions and heals — with every
// invariant holding cluster-wide. Honors -chaos.seed, and sweeps seeds
// 0..n-1 under an explicit -chaos.seeds=n; with the three-peer test that
// covers the shardCounts() matrix.
func TestChaosFederationTwoPeer(t *testing.T) {
	seeds := seedsFor(1, 2)
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		runFederated(t, seed, 2, shardCounts()[0])
	}
}

// TestChaosFederationThreePeer stretches the same to three peers, where
// a partitioned victim must not disturb the two healthy peers.
func TestChaosFederationThreePeer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	counts := shardCounts()
	for _, seed := range seedsFor(3) {
		runFederated(t, seed, 3, counts[len(counts)-1])
	}
}

// runFederated runs one seed on a federation and requires that traffic
// was delivered, crossed a trunk, and died on a partitioned one.
func runFederated(t *testing.T, seed int64, peers, shards int) {
	t.Helper()
	rep := Run(Config{Seed: seed, Events: *flagEvents, Peers: peers, Shards: shards})
	requireHeld(t, rep.Outcome, rep.Failure())
	if rep.Deliveries == 0 || rep.CrossPeer == 0 || rep.TrunkDropped == 0 {
		t.Fatalf("seed %d at %d peers: %d deliveries, %d across trunks, %d dropped on cut trunks — want all > 0",
			seed, peers, rep.Deliveries, rep.CrossPeer, rep.TrunkDropped)
	}
}

// TestChaosPeersDigestIdentity pins the federation layer's zero-cost
// claim at the behavioral level: the full chaos scenario executed on the
// legacy unclustered server and on a single-peer cluster (routing tier
// live on every packet, always resolving local) must produce
// byte-identical schedule digests and both pass every invariant.
func TestChaosPeersDigestIdentity(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		var want string
		for _, peers := range []int{0, 1} {
			rep := Run(Config{Seed: seed, Peers: peers})
			if !rep.OK() {
				t.Fatalf("peers=%d: %s", peers, rep.Failure())
			}
			if rep.Deliveries == 0 {
				t.Fatalf("seed %d peers=%d: no deliveries", seed, peers)
			}
			if want == "" {
				want = rep.Digest
			} else if rep.Digest != want {
				t.Fatalf("seed %d: digest diverged with peers=%d: %s vs %s",
					seed, peers, rep.Digest, want)
			}
		}
	}
}

// TestChaosSelfTest proves the harness has teeth: a deliberately
// corrupted delivery ledger must be detected, reported with the seed,
// and reproduce on the first retry of that seed — on one server and on
// a federation.
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
			for _, peers := range []int{0, 2} {
				cfg := Config{Seed: 7, Sabotage: tc.sab, Peers: peers}
				rep := Run(cfg)
				if rep.OK() {
					t.Fatalf("peers=%d: sabotage %v went undetected", peers, tc.sab)
				}
				if !strings.Contains(strings.Join(rep.Violations, "\n"), tc.want) {
					t.Errorf("peers=%d: sabotage %v: violations %v do not mention %q", peers, tc.sab, rep.Violations, tc.want)
				}
				failure := rep.Failure()
				if !strings.Contains(failure, "-chaos.seed=7") {
					t.Errorf("failure report does not carry the reproduction seed:\n%s", failure)
				}
				// First retry must reproduce.
				if retry := Run(cfg); retry.OK() {
					t.Fatalf("peers=%d: sabotage %v did not reproduce on retry", peers, tc.sab)
				}
			}
		})
	}
}

// TestScheduleDigestsPinned pins the generator itself, not only its
// determinism: the default schedules of seeds 0–3 hash to these values,
// so a change that redraws them is seen as one.
func TestScheduleDigestsPinned(t *testing.T) {
	for seed, want := range []string{
		"731666d362b867ef34c6ac21e0163434710ef248842047823f5aca2e819a9461",
		"931e075f31334cfe93364311a7efdb01c7f07c142edda651702ee0cd310e3151",
		"3b6a0cbe050562fbe213d1c97a84731c9831865147d685245618aec12b3f3dd2",
		"fe2dcc72c5785ca30f5a184cb5c986f9cd848de504885c6e43134152c65891a1",
	} {
		if got := GenerateSchedule(Config{Seed: int64(seed)}).Digest(); got != want {
			t.Errorf("seed %d: digest %s, pinned %s", seed, got, want)
		}
	}
}

// TestGenerateScheduleShape pins the structural guarantees the runner
// relies on: a trailing quiesce, everyone alive at the end, and the
// quarantine channel never listed as touched; on a federation, at most
// one partition open at a time, every one healed before the next
// quiesce, none naming a peer outside the cluster, and at least one
// crossed by a burst.
func TestGenerateScheduleShape(t *testing.T) {
	for _, peers := range []int{0, 2, 3} {
		for seed := int64(0); seed < 20; seed++ {
			checkScheduleShape(t, GenerateSchedule(Config{Seed: seed, Peers: peers}))
		}
	}
}

func checkScheduleShape(t *testing.T, sch Schedule) {
	t.Helper()
	seed, peers := sch.Cfg.Seed, sch.Cfg.Peers
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
	cut, crossed := -1, false
	for _, ev := range sch.Events {
		switch ev.Kind {
		case EvPartition:
			if cut >= 0 || ev.Peer < 0 || ev.Peer >= peers {
				t.Fatalf("seed %d peers %d: %v while p%d is cut", seed, peers, ev, cut)
			}
			cut = ev.Peer
		case EvHeal:
			if ev.Peer != cut {
				t.Fatalf("seed %d peers %d: %v while p%d is cut", seed, peers, ev, cut)
			}
			cut = -1
		case EvBurst:
			side := func(n radio.NodeID) bool { return core.PeerIndex(n, peers) == cut }
			crossed = crossed || (cut >= 0 && ev.Dst != radio.Broadcast && side(ev.Node) != side(ev.Dst))
		case EvKill:
			alive[int(ev.Node)] = false
		case EvReconnect:
			alive[int(ev.Node)] = true
		case EvQuiesce:
			if cut >= 0 {
				t.Fatalf("seed %d peers %d: quiesce with p%d still cut", seed, peers, cut)
			}
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
	if peers >= 2 && !crossed {
		t.Fatalf("seed %d peers %d: no burst crossed a partition", seed, peers)
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
