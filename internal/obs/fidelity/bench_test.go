package fidelity

import (
	"testing"
	"time"

	"repro/internal/gatetest"
)

func TestAllocGateFidelity(t *testing.T) {
	for _, bench := range []string{"ShardRecord/healthy", "ShardRecord/missing", "RecorderRecord"} {
		gatetest.Allocs(t, bench, 10000, 0)
	}
}

// BenchmarkShardRecord measures the full per-batch accounting the
// scanner pays for monitoring: histogram observe, counters,
// watermark, EWMA drift, flight-recorder event, window bookkeeping.
// This is the monitor's entire hot-path cost (one call per batch, not
// per packet) and it must stay allocation-free (TestAllocGateFidelity);
// EXPERIMENTS.md A8 records the baseline.
func BenchmarkShardRecord(b *testing.B) {
	m := New(1, Config{}, nil)
	sh := m.Shard(0)
	b.Run("healthy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh.Record(int64(i), int64(time.Millisecond), 8, 0)
		}
	})
	b.Run("missing", func(b *testing.B) {
		// Every batch misses: the counter, the miss event, and the
		// state-machine evaluation are all on this path. Warm past the
		// healthy→overrun breach first — the one-time dump allocation is
		// by design, the steady state is not allowed to allocate.
		for i := 0; i < 2*DefaultWindow; i++ {
			sh.Record(int64(i), int64(100*time.Millisecond), 8, 8)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh.Record(int64(i), int64(100*time.Millisecond), 8, 8)
		}
	})
}

// BenchmarkRecorderRecord measures one flight-recorder append — the
// cost cold paths (queue drops, view rebuilds) and each stage of a
// sampled packet pay to drop an event in the ring. Five atomic stores,
// no allocation.
func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(DefaultRecorderSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(EvQueueDrop, 0, int64(i), 42, 0)
	}
}
