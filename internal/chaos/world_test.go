package chaos

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// seedsFor returns the seeds a hand-seeded scenario test covers: the
// reproduction seed when -chaos.seed is set, 0..n-1 when -chaos.seeds=n
// was given explicitly (the nightly sweep), else the fixed defaults.
func seedsFor(defaults ...int64) []int64 {
	if *flagSeed >= 0 {
		return []int64{*flagSeed}
	}
	sweep := false
	flag.Visit(func(f *flag.Flag) { sweep = sweep || f.Name == "chaos.seeds" })
	if !sweep {
		return defaults
	}
	seeds := make([]int64, *flagSeeds)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// requireHeld fails the test unless the scenario held every invariant
// and gave the shared checks something to judge.
func requireHeld(t *testing.T, o Outcome, failure string) {
	t.Helper()
	if !o.OK() {
		t.Fatal(failure)
	}
	requireJudged(t, o)
}

// requireJudged fails the test when a run's pool never allocated or its
// servers never fired a delivery: settle and close then pass vacuously.
func requireJudged(t *testing.T, o Outcome) {
	t.Helper()
	if o.allocs == 0 || o.fired == 0 {
		t.Fatalf("seed %d: shared checks passed vacuously: %d pooled allocations, %d fired deliveries",
			o.Seed, o.allocs, o.fired)
	}
}

// TestSettleSelfTest proves the checks every scenario inherits have
// teeth on every kind of world, not only under Run: after honest
// traffic settles clean, one deliberate corruption of the harness's own
// books (never the emulator) must surface as exactly the violation that
// guards it.
func TestSettleSelfTest(t *testing.T) {
	cases := []struct {
		name     string
		sabotage func(t *testing.T, w *world)
		want     string
	}{
		{"swap-order", func(t *testing.T, w *world) {
			if !w.swapAdjacentDeliveries() {
				t.Fatal("no adjacent pair of deliveries to swap")
			}
			w.settle("sabotaged")
		}, "fifo"},
		// A delivery nobody fired is in no fire order.
		{"fabricate", func(t *testing.T, w *world) {
			w.fabricateDelivery()
			w.settle("sabotaged")
		}, "fifo"},
		{"mbuf-leak", func(t *testing.T, w *world) { w.pool.Alloc(64) }, "mbuf leak"},
		// Five, because close allows three runtime-internal strays.
		{"goroutine-leak", func(t *testing.T, w *world) {
			park := make(chan struct{})
			t.Cleanup(func() { close(park) })
			for i := 0; i < 5; i++ {
				go func() { <-park }()
			}
		}, "goroutine leak"},
	}
	for _, peers := range []int{0, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("peers=%d/%s", peers, tc.name), func(t *testing.T) {
				w, err := newWorld(1, vclock.NewSystem(50), peers, 64, core.ServerConfig{ClusterID: "selftest"})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.tightCluster(3, time.Millisecond); err != nil {
					w.close()
					t.Fatal(err)
				}
				for k := 0; k < 4; k++ {
					if err := w.clients[0].current().c.Broadcast(1, 1, []byte("selftest")); err != nil {
						t.Error(err)
					}
				}
				w.settle("honest")
				honest := len(w.violations)
				tc.sabotage(t, w)
				o := w.close()
				if honest != 0 {
					t.Fatalf("honest traffic violated: %v", o.Violations[:honest])
				}
				requireJudged(t, o)
				if len(o.Violations) != 1 || !strings.Contains(o.Violations[0], tc.want) {
					t.Fatalf("violations %q, want exactly one mentioning %q", o.Violations, tc.want)
				}
			})
		}
	}
}

// TestObsCheckReadsTheExposition gives the obs invariant teeth: it
// judges the Prometheus text a peer's registry renders, so after honest
// traffic every pipeline counter's sample matches Stats, and one
// doctored sample line is reported as exactly one mismatch naming it.
func TestObsCheckReadsTheExposition(t *testing.T) {
	w, err := newWorld(1, vclock.NewSystem(50), 0, 64, core.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if o := w.close(); !o.OK() {
			t.Errorf("violations: %q", o.Violations)
		}
	}()
	if err := w.tightCluster(3, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := w.clients[0].current().c.Broadcast(1, 1, []byte("obs")); err != nil {
			t.Fatal(err)
		}
	}
	w.settle("honest")
	var text strings.Builder
	if err := w.peers[0].reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	st := w.peers[0].srv.Stats()
	if v := exposedCounterMismatches(text.String(), st); len(v) != 0 {
		t.Fatalf("honest exposition reported: %q", v)
	}
	honest := fmt.Sprintf("\npoem_forwarded_total %d\n", st.Forwarded)
	doctored := strings.Replace(text.String(), honest, fmt.Sprintf("\npoem_forwarded_total %d\n", st.Forwarded+1), 1)
	if doctored == text.String() || st.Forwarded == 0 {
		t.Fatalf("no forwarded sample to doctor (forwarded %d)", st.Forwarded)
	}
	v := exposedCounterMismatches(doctored, st)
	if len(v) != 1 || !strings.Contains(v[0], "poem_forwarded_total") {
		t.Fatalf("doctored exposition reported %q, want exactly one poem_forwarded_total mismatch", v)
	}
}

// TestFederationSetupTeardownSoak hunts the one-in-2000 two-peer set-up
// hang the benchmark's trunk_tcp workload once hit: build a federation,
// put one node on each peer through the coordinator, wait for
// replication, dial both clients, tear everything down — over and over,
// failing on any violation. The trunks here are in-process pipes, not
// TCP, so this covers the handshake, replication-wait and teardown
// suspects and not a socket-level one. A hang is caught by go test's
// -timeout, whose goroutine dump is the artifact to keep; the nightly
// job reaches 10 000 iterations with -count=50. The follower takes the
// coordinator's scene as one snapshot at first contact. A tenth as many
// iterations again are cold joins: the follower's server starts only
// after the coordinator's journal has wrapped, and it too must catch up
// through a snapshot (two, when its resend request crosses the
// coordinator's own).
func TestFederationSetupTeardownSoak(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 20
	}
	for i := 0; i < n+n/10; i++ {
		w, err := newWorld(int64(i), vclock.NewSystem(200), 2, 256, core.ServerConfig{ClusterID: "soak"})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		cold := i >= n
		if cold {
			w.stop(1)
			for k := 0; k <= scene.JournalRecords+1; k++ {
				w.peers[0].sc.SetPaused(k%2 == 0) // ends unpaused
			}
			err = w.restart(1, 256)
		}
		if err == nil {
			err = w.tightCluster(2, time.Millisecond)
		}
		if err == nil && w.clients[0].owner == w.clients[1].owner {
			err = fmt.Errorf("both nodes landed on peer %d", w.clients[0].owner)
		}
		// The follower counts a snapshot just after restoring it: poll the
		// count, do not sample it once.
		snaps := func() uint64 { return w.peers[1].srv.Cluster().Snapshots }
		if err == nil && !pollUntil(time.Second, func() bool { return snaps() > 0 }) {
			err = errors.New("the follower took no snapshot")
		}
		if n := snaps(); err == nil && !cold && n != 1 {
			err = fmt.Errorf("the follower took %d snapshots at first contact", n)
		}
		if o := w.close(); err != nil || !o.OK() {
			t.Fatalf("iteration %d (cold join %v): setup error %v, violations %q", i, cold, err, o.Violations)
		}
	}
}
