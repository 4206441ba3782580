package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Overhead summarizes the emulator's own per-stage p99 latencies during
// an experiment run, read from the run's metrics registry. Publishing
// these next to each result follows the "emulation results are only
// trustworthy when the emulator publishes its own overhead" rule: a
// curve is comparable with the analytic expectation only while the
// server's processing stays far below the emulated timescale.
type Overhead struct {
	Samples     uint64        // sampled packets behind the quantiles
	IngestP99   time.Duration // socket read → all targets resolved+scheduled
	DispatchP99 time.Duration // neighbor+link-model resolution only
	EnqueueP99  time.Duration // scheduler pop → writer queue push
	SendP99     time.Duration // writer dequeue → socket write done

	// The scheduler's own evidence: the worst shard's p99 of how far
	// past its due time a fired batch's earliest delivery left
	// (emulation time), and the share of fired deliveries that missed
	// the real-time tolerance. A run whose curve is off with these high
	// was starved of CPU; with them low, the model is what moved.
	FireLagP99 time.Duration
	MissRatio  float64
}

// overheadFrom extracts the stage quantiles from a run's registry and
// the fire-lag and deadline-miss figures from its server's shards.
func overheadFrom(reg *obs.Registry, srv *core.Server) Overhead {
	var o Overhead
	var fired, missed uint64
	for _, sh := range srv.ShardStats() {
		o.FireLagP99 = max(o.FireLagP99, sh.LagP99)
		fired += sh.Dispatched
		missed += sh.DeadlineMisses
	}
	if fired > 0 {
		o.MissRatio = float64(missed) / float64(fired)
	}
	read := func(name string, dst *time.Duration) {
		h := reg.FindHistogram(name)
		if h == nil || h.Count() == 0 {
			return
		}
		*dst = time.Duration(h.Quantile(0.99))
		if c := h.Count(); c > o.Samples {
			o.Samples = c
		}
	}
	read("poem_ingest_ns", &o.IngestP99)
	read("poem_dispatch_ns", &o.DispatchP99)
	read("poem_enqueue_ns", &o.EnqueueP99)
	read("poem_send_ns", &o.SendP99)
	return o
}

func (o Overhead) String() string {
	return fmt.Sprintf("samples=%d ingest-p99=%v dispatch-p99=%v enqueue-p99=%v send-p99=%v fire-lag-p99=%v deadline-miss=%.4f",
		o.Samples, o.IngestP99, o.DispatchP99, o.EnqueueP99, o.SendP99, o.FireLagP99, o.MissRatio)
}
