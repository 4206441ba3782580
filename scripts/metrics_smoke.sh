#!/bin/sh
# metrics_smoke.sh — end-to-end smoke test of the poemd debug endpoint.
#
# Starts a two-peer federation of poemd, the first with -debug, waits
# for /healthz, scrapes /metrics and the control port's `stats` verb (the
# same registry), and fails if any registered metric family is missing
# from either or any value renders as NaN; also checks that /trace (the
# sampled packet lifecycles) answers a JSON array. Run from the repo root:
#
#	./scripts/metrics_smoke.sh
set -eu

LISTEN=127.0.0.1:17000
CONTROL=127.0.0.1:17001
DEBUG=127.0.0.1:17002
PEER_LISTEN=127.0.0.1:17010
PEER_CONTROL=127.0.0.1:17011
PEERS=$LISTEN,$PEER_LISTEN
BINDIR=$(mktemp -d)
BIN=$BINDIR/poemd

go build -o "$BINDIR" ./cmd/poemd ./cmd/poemctl

"$BIN" -listen $LISTEN -control $CONTROL -debug $DEBUG -peer $PEERS -peer-self 0 &
PID=$!
"$BIN" -listen $PEER_LISTEN -control $PEER_CONTROL -peer $PEERS -peer-self 1 &
PEER_PID=$!
trap 'kill $PID $PEER_PID 2>/dev/null; wait $PID $PEER_PID 2>/dev/null || true' EXIT

ok=0
for _ in $(seq 1 100); do
	if curl -fsS "http://$DEBUG/healthz" >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
[ "$ok" = 1 ] || { echo "poemd debug endpoint never came up"; exit 1; }

metrics=$(curl -fsS "http://$DEBUG/metrics")
# The control port may open a moment after the debug endpoint.
stats=
for _ in $(seq 1 50); do
	stats=$("$BINDIR/poemctl" -server $CONTROL stats 2>/dev/null) && break
	sleep 0.1
done

fail=0
# check SOURCE TEXT: every family below must have a sample line in TEXT,
# and no value may render as NaN.
check() {
	for name in $FAMILIES; do
		if ! printf '%s\n' "$2" | grep -q "^$name"; then
			echo "$1: missing metric: $name"
			fail=1
		fi
	done
	if printf '%s\n' "$2" | grep -q 'NaN'; then
		echo "$1: NaN value:"
		printf '%s\n' "$2" | grep 'NaN'
		fail=1
	fi
}

FAMILIES="\
	poem_received_total poem_forwarded_total poem_dropped_total \
	poem_noroute_total poem_queue_drops_total poem_stamp_clamped_total \
	poem_clients poem_scheduled poem_clock_seconds \
	poem_ingest_ns poem_dispatch_ns poem_enqueue_ns poem_send_ns \
	poem_deliver_lag_ns \
	poem_scene_nodes poem_scene_view_rebuilds_total poem_scene_tick_ns \
	poem_scene_rows_republished_total \
	poem_record_packets_total poem_record_scenes_total \
	poem_record_batch_commits_total poem_record_log_dropped_total \
	poem_health poem_health_breaches_total \
	poem_flight_recorder_events_total \
	poem_shard_health poem_shard_deadline_miss_total \
	poem_shard_deadline_lag_ns poem_shard_deadline_watermark_ns \
	poem_shard_deadline_drift_ns \
	poem_cluster_remote_entries_total poem_cluster_trunk_dropped_total \
	poem_cluster_trunk_pending_entries poem_cluster_recv_entries_total \
	poem_cluster_staleness_last_ns poem_cluster_peer_health \
	poem_cluster_applied_seq poem_cluster_scene_snapshots_total \
	poem_cluster_scene_divergence \
	poem_cluster_info poem_cluster_self poem_cluster_coordinator \
	poem_cluster_peer_trunk_up poem_cluster_peer_trunk_entries_total \
	poem_cluster_peer_trunk_frames_total poem_cluster_peer_trunk_dropped_total \
	poem_cluster_peer_trunk_pending_entries poem_cluster_peer_trunk_reconnects_total \
	poem_cluster_peer_trunk_dial_failures_total poem_cluster_peer_digest_diverged \
	poem_shard_queue_depth poem_shard_fire_batches_total"
check /metrics "$metrics"
check "poemctl stats" "$stats"

trace=$(curl -fsS "http://$DEBUG/trace")
case "$trace" in
[\[]*) ;;
*) echo "/trace did not answer a JSON array: $trace"; fail=1 ;;
esac

health=$(curl -fsS "http://$DEBUG/healthz")
case "$health" in
*'"state"'*'"shards"'*) ;;
*) echo "/healthz did not answer a health report: $health"; fail=1 ;;
esac

fidtrace=$(curl -fsS "http://$DEBUG/fidelity/trace")
case "$fidtrace" in
*'"traceEvents"'*) ;;
*) echo "/fidelity/trace did not answer tracing JSON: $fidtrace"; fail=1 ;;
esac

[ "$fail" = 0 ] || exit 1
echo "metrics smoke OK ($(printf '%s\n' "$metrics" | grep -c '^poem_') poem_* sample lines; $(printf '%s\n' "$stats" | grep -c '^poem_') from poemctl stats)"
