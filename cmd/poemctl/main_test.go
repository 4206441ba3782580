package main

import (
	"strings"
	"testing"
	"time"
)

// exposition is a canned `stats` reply: the registry's text format,
// with labelled series, a histogram's quantile gauges and comments.
func exposition(received, forwarded, dropped, noroute, qdrops, clamped, health, shard1 string) []string {
	return strings.Split(`# HELP poem_clients connected sessions
# TYPE poem_clients gauge
poem_clients 4
poem_scheduled 17
# TYPE poem_received_total counter
poem_received_total `+received+`
poem_forwarded_total `+forwarded+`
poem_dropped_total `+dropped+`
poem_noroute_total `+noroute+`
poem_queue_drops_total `+qdrops+`
poem_stamp_clamped_total `+clamped+`
poem_health `+health+`
# TYPE poem_ingest_ns histogram
poem_ingest_ns_bucket{le="2048"} 3
poem_ingest_ns_bucket{le="+Inf"} 3
poem_ingest_ns_sum 4500
poem_ingest_ns_count 3
poem_ingest_ns_p50 1500
poem_ingest_ns_p95 2000
poem_ingest_ns_p99 2048
poem_send_ns_count 0
poem_shard_health{shard="0"} 0
poem_shard_health{shard="1"} `+shard1+`
poem_cluster_info{cluster="a b"} 1`, "\n")
}

func TestWatchReport(t *testing.T) {
	prev := parseSamples(exposition("100", "200", "10", "0", "5", "1", "0", "0"))
	cur := parseSamples(exposition("300", "600", "30", "4", "5", "3", "1", "2"))
	if got := cur[`poem_cluster_info{cluster="a b"}`]; got != 1 {
		t.Errorf("a label value with a space: %v", got)
	}
	var b strings.Builder
	report(&b, time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC), 2, prev, cur)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	want := []string{
		"12:00:00 clients=4 sched=17 recv/s=100 fwd/s=200 drop/s=10 noroute/s=2 qdrop/s=0 clamp/s=1 health=degraded",
		"         ingest samples=3 p50=1.5µs p95=2µs p99=2.048µs",
		"         shard 1 health=overrun",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report:\n%s\nwant:\n%s", b.String(), strings.Join(want, "\n"))
	}

	// A healthy server with every shard keeping real time reports no
	// shard line.
	b.Reset()
	report(&b, time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC), 1, prev, prev)
	if out := b.String(); strings.Contains(out, "shard") || !strings.Contains(out, "health=healthy") {
		t.Fatalf("healthy report:\n%s", out)
	}
}
