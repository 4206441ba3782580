package chaos

import (
	"testing"
)

// TestChaosFederationTwoPeer is the federated acceptance run: two peers,
// cross-server traffic, coordinator scene churn, a full partition of
// peer 1, and a healed recovery — with every steady-state invariant
// holding cluster-wide at every settled point. Honors -chaos.seed, and
// sweeps seeds 0..n-1 under an explicit -chaos.seeds=n.
func TestChaosFederationTwoPeer(t *testing.T) {
	seeds := seedsFor(1, 2)
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		rep := RunFederated(FedConfig{Seed: seed, Peers: 2})
		requireHeld(t, rep.Outcome, rep.Failure())
		if rep.Delivered == 0 {
			t.Fatalf("seed %d: no deliveries", seed)
		}
		if rep.CrossPeer == 0 {
			t.Fatalf("seed %d: nothing crossed a trunk", seed)
		}
		if rep.TrunkDropped == 0 {
			t.Fatalf("seed %d: partition phase dropped nothing", seed)
		}
	}
}

// TestChaosFederationThreePeer stretches the same scenario to three
// peers: the partitioned victim (peer 2) must not disturb delivery or
// replication between the two healthy peers.
func TestChaosFederationThreePeer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range seedsFor(3) {
		rep := RunFederated(FedConfig{Seed: seed, Peers: 3})
		requireHeld(t, rep.Outcome, rep.Failure())
		if rep.CrossPeer == 0 {
			t.Fatalf("seed %d: nothing crossed a trunk", seed)
		}
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
