#!/bin/sh
# check_allocs.sh — allocation regression gate for the forwarding path.
#
# Runs the fan-out benchmarks with -benchmem and fails if any measured
# allocs/op exceeds the budget. The pooled packet path (internal/mbuf)
# keeps the steady-state forwarding pipeline allocation-free; a new
# allocation per packet is a regression the timing-based benches would
# hide (it shows up as GC pauses under load, not as mean ns/op). The
# recorded numbers live in BENCH_alloc.json. Run from the repo root:
#
#	./scripts/check_allocs.sh [max_allocs_per_op]
set -eu

BUDGET=${1:-2}
# More than one iteration so the pools are warm: the very first packet
# of a class pays its heap allocation by design.
OUT=$(go test -run='^$' -bench='SessionQueueFanout|AllocFanout' -benchmem -benchtime=100x .)
echo "$OUT"

echo "$OUT" | awk -v budget="$BUDGET" '
	/allocs\/op/ {
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > budget) {
				printf "FAIL: %s measured %s allocs/op, budget %d\n", $1, $i, budget
				bad = 1
			}
		}
	}
	END { exit bad }
' || { echo "alloc gate: FAILED (budget ${BUDGET} allocs/op)"; exit 1; }

echo "alloc gate: OK (every fan-out bench within ${BUDGET} allocs/op)"

# The batch-firing scanner's sleep/fire cycle must allocate NOTHING:
# the reusable clock waiter replaced the goroutine-plus-two-channels
# per sleep, and any new allocation here is a regression on the hottest
# idle-to-fire edge (EXPERIMENTS.md A7 records the baseline). Neither
# may a broadcast storm: a schedule entry is one transmission to a run
# of receivers, and an exhausted entry hands its receiver slice to the
# next fan. The storm leg runs many more iterations than the others so
# the heap and that spare list reach steady state; allocs/op there is
# per fired item, so sched's TestPushFanSteadyStateAllocFree is what
# counts per fan. Nor may in-order traffic: two constant-delay flows
# interleaved in bursts fill the schedule's in-order run, whose
# ring.Ring stops growing once it holds the steady depth.
SCHED=$(go test -run='^$' -bench='ScannerSleepFire' -benchmem -benchtime=100x ./internal/sched
	go test -run='^$' -bench='ScannerStorm/fan=36' -benchmem -benchtime=200000x ./internal/sched
	go test -run='^$' -bench='ScheduleQueueImpls/in-order/heap' -benchmem -benchtime=2000x ./internal/sched)
echo "$SCHED"

echo "$SCHED" | awk '
	/allocs\/op/ {
		seen++
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > 0) {
				printf "FAIL: %s measured %s allocs/op, budget 0\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || seen != 3 }
' || { echo "scanner alloc gate: FAILED (sleep/fire, the fan=36 storm and in-order pushes must be allocation-free)"; exit 1; }

echo "scanner alloc gate: OK (sleep/fire cycle, fan=36 storm and in-order pushes allocation-free)"

# The shard's hand-off of a fired batch must allocate nothing either:
# one 36-receiver broadcast resolves its sessions into a scratch slice
# sized for a full batch once, wraps the fan in one pooled wire.Data
# that the drains release as the writers' sends do, and pushes into
# send queues whose ring.Ring has grown to hold their bound. A scratch or ring that keeps growing,
# or a wrapper that never goes back to its pool, shows up here.
FIRE=$(go test -run='^$' -bench='DeliverFiredBatch' -benchmem -benchtime=2000x ./internal/core)
echo "$FIRE"

echo "$FIRE" | awk '
	/allocs\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > 0) {
				printf "FAIL: %s measured %s allocs/op, budget 0\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "fired-batch alloc gate: FAILED (delivering a fired batch must be allocation-free)"; exit 1; }

echo "fired-batch alloc gate: OK (a fired 36-receiver batch delivered allocation-free)"

# The fidelity monitor rides the same fire edge: one Shard.Record per
# scanner batch plus flight-recorder appends from the cold paths. Both
# must stay allocation-free in steady state or monitoring stops being
# "~0% overhead" (EXPERIMENTS.md A8 records the baseline costs).
FID=$(go test -run='^$' -bench='ShardRecord|RecorderRecord' -benchmem -benchtime=10000x ./internal/obs/fidelity)
echo "$FID"

echo "$FID" | awk '
	/allocs\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > 0) {
				printf "FAIL: %s measured %s allocs/op, budget 0\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "fidelity alloc gate: FAILED (deadline accounting must be allocation-free)"; exit 1; }

echo "fidelity alloc gate: OK (deadline accounting and recorder appends allocation-free)"

# The gateway ingress path carries real socket traffic into the
# emulation; at iperf rates a per-datagram allocation is a regression.
# Peer learning, the backpressure gate, frame parsing and the pooled
# copy must all stay on the stack in steady state.
GW=$(go test -run='^$' -bench='GatewayIngress' -benchmem -benchtime=100x ./internal/gateway)
echo "$GW"

echo "$GW" | awk '
	/allocs\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > 0) {
				printf "FAIL: %s measured %s allocs/op, budget 0\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "gateway alloc gate: FAILED (ingress must be allocation-free)"; exit 1; }

echo "gateway alloc gate: OK (ingress path allocation-free)"

# The federation trunk carries every cross-server delivery; its batch
# send (pooled TrunkBatch, one writev-shaped frame) gets the same budget
# as the fan-out path — up to 2 allocs/op for pool misses — and the pure
# encode must allocate nothing. Neither may the cluster's deferred path:
# entries join a pending batch that comes back through the TrunkBatch
# pool, entry array included, and a flusher starts from a function value
# bound once. More iterations than the other gates: the batch pool and
# the pipe queue grow to steady state over the first few hundred
# batches, and those one-time allocations must amortize out of the
# per-op figure.
TRUNK=$(go test -run='^$' -bench='TrunkBatchSend|TrunkBatchEncode|TrunkDeferred' -benchmem -benchtime=2000x ./internal/transport)
echo "$TRUNK"

echo "$TRUNK" | awk -v budget="$BUDGET" '
	/allocs\/op/ {
		seen++
		b = budget
		if ($1 ~ /Encode|Deferred/) b = 0
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > b) {
				printf "FAIL: %s measured %s allocs/op, budget %d\n", $1, $i, b
				bad = 1
			}
		}
	}
	END { exit bad || seen != 3 }
' || { echo "trunk alloc gate: FAILED (batch send within ${BUDGET} allocs/op, encode and deferred sends at 0)"; exit 1; }

echo "trunk alloc gate: OK (batch send within ${BUDGET} allocs/op, encode and deferred sends allocation-free)"

# A session writer's flush crosses the in-process pipe as one unit: one
# 64-message SendBatch, then the 64 Recvs that take it. The pipe's two
# rings grow to a batch in the first iterations and then stay, so a
# round trip allocates nothing.
PIPE=$(go test -run='^$' -bench='PipeBatchRoundTrip' -benchmem -benchtime=2000x ./internal/transport)
echo "$PIPE"

echo "$PIPE" | awk '
	/allocs\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > 0) {
				printf "FAIL: %s measured %s allocs/op, budget 0\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "pipe batch alloc gate: FAILED (a 64-message flush across the pipe must be allocation-free)"; exit 1; }

echo "pipe batch alloc gate: OK (a 64-message flush across the pipe allocation-free)"

# The emulation client's TCP send path defers its writes: a burst of
# SendDeferred calls appends to the connection's pending buffer and one
# transient flusher goroutine writes it. Starting that goroutine (one
# 16-byte closure) is all a burst may allocate. The figure is per
# 64-message burst behind a write in progress, so anything per message
# reads 64 or more.
BURST=$(go test -run='^$' -bench='DeferredBurstAllocs' -benchmem -benchtime=2000x ./internal/transport)
echo "$BURST"

echo "$BURST" | awk '
	/allocs\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > 1) {
				printf "FAIL: %s measured %s allocs/op, budget 1 per 64-message burst\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "client burst alloc gate: FAILED (a 64-message deferred burst may allocate its flusher start, nothing per message)"; exit 1; }

echo "client burst alloc gate: OK (a 64-message deferred burst allocates its flusher start and nothing else)"

# The emulation client's TCP receive path decodes each Data frame in
# place: the payload aliases the connection's borrowed read buffer and
# the wrapper comes from the Data pool, so a received packet allocates
# nothing — where a frame buffer, a Data and a payload copy each were
# one allocation (EXPERIMENTS.md A19). Many iterations, so the first
# borrowed buffer and the pool's first wrappers amortize out.
RECV=$(go test -run='^$' -bench='TCPClientRecv' -benchmem -benchtime=20000x ./internal/transport)
echo "$RECV"

echo "$RECV" | awk '
	/allocs\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "allocs/op" && $i + 0 > 0) {
				printf "FAIL: %s measured %s allocs/op, budget 0\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "client receive alloc gate: FAILED (a received Data frame must decode in place, allocation-free)"; exit 1; }

echo "client receive alloc gate: OK (received Data frames decode in place, allocation-free)"

# A scene edit publishes a dispatch view that shares every unchanged row
# with the previous one: an operator's MoveNode on the 16 384-node scene
# copies the ≈ 37 rows it changed, their buckets and the bucket
# directory — ≈ 50 KiB. A full view rebuild was ≈ 12 MB per edit; a
# publish that has stopped sharing rows shows up here long before it
# shows up as lateness.
SCENE=$(go test -run='^$' -bench='SceneMoveNode/nodes=16384' -benchmem -benchtime=100x ./internal/scene)
echo "$SCENE"

echo "$SCENE" | awk '
	/B\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "B/op" && $i + 0 > 65536) {
				printf "FAIL: %s measured %s B/op, budget 65536\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "scene publish gate: FAILED (one MoveNode at 16 384 nodes must stay under 64 KiB/op)"; exit 1; }

echo "scene publish gate: OK (one MoveNode at 16 384 nodes under 64 KiB/op)"

# A session costs what it uses: one in-process registration — session,
# send queue, link-model dice, HelloAck and the initial radios
# notification — measured on the server side. The parent of the
# counter-based dice read 8 978 B/op and 19 allocs/op (a 4.9 KiB
# math/rand source and a 16-slot queue ring per session); 1 906 B/op
# and 18 allocs/op after. The budget is that figure rounded up to the
# next KiB, so per-session state cannot creep back. Since the queues
# store their entries in ring.Ring, which starts at one slot where the
# in-process pipe's ring started at eight, it reads 1 681–1 682 B/op and 19
# allocs/op (1 762 and 18 before). Fresh process, one
# count: later counts reuse exited goroutines and read ≈ 480 B lower.
REG=$(go test -run='^$' -bench='RegisterInprocSession' -benchmem -benchtime=2000x ./internal/core)
echo "$REG"

echo "$REG" | awk '
	/B\/op/ {
		seen = 1
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "B/op" && $i + 0 > 2048) {
				printf "FAIL: %s measured %s B/op, budget 2048\n", $1, $i
				bad = 1
			}
		}
	}
	END { exit bad || !seen }
' || { echo "session footprint gate: FAILED (one in-proc registration must stay within 2 KiB/op)"; exit 1; }

echo "session footprint gate: OK (one in-proc registration within 2 KiB/op)"
