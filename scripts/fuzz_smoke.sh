#!/bin/sh
# fuzz_smoke.sh — short fuzzing pass over every fuzz target in the repo.
#
# `go test -fuzz` accepts exactly one target per invocation, so this
# loops over the known (package, target) pairs with a small -fuzztime.
# It is a smoke test: the goal is catching regressions in the decoders'
# robustness quickly on every push, not deep exploration (the nightly
# workflow runs the same loop with a longer budget). Run from the repo
# root:
#
#	./scripts/fuzz_smoke.sh [fuzztime]
set -eu

FUZZTIME=${1:-20s}

# Extra arguments go to go test. FuzzSceneJournal and FuzzFrameReader
# bound the minimizing of each new corpus entry: every input builds a
# scene, or reads a stream up to a MaxFrame-sized frame four ways, so a
# minimization run to the default 60 s stalls a short pass.
run() {
	pkg=$1
	target=$2
	shift 2
	echo "==> fuzz $pkg $target ($FUZZTIME)"
	go test "$pkg" -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$@"
}

run ./internal/wire FuzzReadMsg
run ./internal/wire FuzzTrunkFrame
run ./internal/transport FuzzFrameReader -fuzzminimizetime=200x
run ./internal/scene FuzzSceneJournal -fuzzminimizetime=200x
run ./internal/script FuzzParse
run ./internal/record FuzzLoad
run ./internal/routing FuzzDecodeFrame
run ./internal/routing FuzzProtocolsSurviveGarbage
run ./internal/gateway FuzzGatewayFrame
run ./internal/control FuzzControlExecute

echo "fuzz smoke: all targets survived $FUZZTIME"
