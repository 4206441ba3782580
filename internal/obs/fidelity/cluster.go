package fidelity

import (
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// ClusterHealth rolls the per-peer real-time health states of a
// federated cluster into one view. Each peer feeds its own slot from
// its local Monitor and every remote peer's slot from the TrunkStatus
// heartbeats it receives, so any peer can answer "is the cluster
// keeping real time" without a second control plane. States stay
// whatever they last were while a peer is silent — a dead peer's slot
// freezes, and the trunk-connectivity stats (not this type) say why.
type ClusterHealth struct {
	states []atomic.Uint32
}

// NewClusterHealth builds the roll-up for npeers peers, all starting
// Healthy, and registers per-peer health gauges plus the cluster-wide
// worst on reg (nil skips instrumentation):
//
//	poem_cluster_peer_health{peer="i"}  0 healthy, 1 degraded, 2 overrun
//	poem_cluster_health                 worst state across peers
func NewClusterHealth(npeers int, reg *obs.Registry) *ClusterHealth {
	c := &ClusterHealth{states: make([]atomic.Uint32, npeers)}
	if reg == nil {
		return c
	}
	for i := range c.states {
		i := i
		reg.Gauge(obs.Labeled("poem_cluster_peer_health", "peer", strconv.Itoa(i)),
			"last known real-time health state of this cluster peer",
			func() float64 { return float64(c.states[i].Load()) })
	}
	reg.Gauge("poem_cluster_health", "worst real-time health state across cluster peers",
		func() float64 { return float64(c.Worst()) })
	return c
}

// Set records peer's health state.
func (c *ClusterHealth) Set(peer int, st State) {
	if peer < 0 || peer >= len(c.states) {
		return
	}
	c.states[peer].Store(uint32(st))
}

// Worst returns the worst state across all peers — the cluster-wide
// analogue of Monitor.State's max-over-shards.
func (c *ClusterHealth) Worst() State {
	worst := Healthy
	for i := range c.states {
		if st := State(c.states[i].Load()); st > worst {
			worst = st
		}
	}
	return worst
}
