#!/bin/sh
# race_repeat.sh — the repeat list: tests that guard concurrent code,
# each run 10 times under the race detector, where one run would pass a
# race that bites one time in ten. One line per go test invocation,
# grouped by what the group guards. A test joins by being named on a
# line here. Run from the repo root (≈ 4 minutes on two cores):
#
#	./scripts/race_repeat.sh
set -eu

# Client send path: deferred sends, write order across call kinds, Close
# vs flusher, lock-free sequence numbers.
go test ./internal/transport -count=10 -race -run 'Deferred|SynchronousSends|OrderAcrossCallKinds|WriteErrorSticks|CloseWaitsForFlusher'
go test ./internal/core -count=10 -race -run 'TestClientDefersPacketsOnly|TestClientSeqDistinctAcrossGoroutines|TestClientCloseFlushesDeferredSendsOverTCP'

# Client receive path: read buffers borrowed only while bytes are unread
# and returned on every terminal path, payloads aliasing them never
# overwritten while held, poisoned after release.
go test ./internal/transport -count=10 -race -run 'FrameStraddling|FrameReaderLargeFrames|ReadBufferReturned|IdleConnectionHoldsNoReadBuffer|UnreleasedMessageKeepsItsBytes|PayloadAfterReleaseReadsPoison'

# Trunk send path: deferred trunk batches, frame split, the trunk
# ledger, cluster stats over it, the send-queue oracle.
go test ./internal/transport -count=10 -race -run 'TestTrunk'
go test ./internal/core -count=10 -race -run 'TestClusterStatsReadTheTrunkLedger|TestRouteRemote|TestSendQueueMatchesOracle'

# Bounded FIFO rings: the in-process pipe blocks its sender at its
# depth and keeps order — one message or a batch at a time, with the
# messages its reader has taken but not returned counted in the depth,
# no blocked sender's wake-up lost and the unsent tail of a batch
# released at close —, the gateway's egress queue evicts its oldest
# entry at its bound (a power of two and not), and a datagram loops
# through a gateway. The send queue's ring tests run with the trunk and
# fired-batch groups.
go test ./internal/transport -count=10 -race -run 'TestInprocPipeBlocksAtDepthAndKeepsOrder|TestPipeSendBatchWaitsForRoomAndKeepsOrder|TestPipeCloseDuringSendBatchReleasesTail|TestPipeHeldEntriesCountTowardDepth|TestPipeConcurrentBatchSendersKeepOrder|TestPoolIngressKeepsBatchSend'
go test ./internal/gateway -count=10 -race -run 'TestEgressQueueDropOldest|TestGatewayLoopback'

# Scene replication: the journal ring and its snapshots, the one
# catch-up path (a follower behind the ring, a follower or coordinator
# restarted, a follower missing an unread frame), misconfigured trunks
# refused, divergence reported.
go test ./internal/scene -count=10 -race -run 'Journal|Restore|Replica|Replicated'
go test ./internal/core -count=10 -race -run 'TestReplicationOutlivesJournal|TestFollowerRestartResynchronizes|TestCoordinatorRestartResynchronizes|TestUnreadSceneFrameIsResent|TestTrunkRefusesMisconfiguredPeers|TestFollowerDivergenceIsReported|TestFederationSceneReplication'

# Recording store: sharded commits, segments that never move, one log
# format.
go test ./internal/record -race -count=10

# Link-model dice: verdicts keyed by seed, packet and receiver —
# unchanged by unrelated scene edits and shard count, re-derived from
# the recording; dice statistics.
go test ./internal/linkmodel -count=10 -race -run 'Dice'
go test ./internal/core -count=10 -race -run 'TestDropSetIgnoresUnrelatedSceneChanges|TestRecordedDropsRederive'

# Packet lifecycles: stage events keyed by the packet on the flight
# recorder — every leg of a broadcast, every stage sampling the same
# packets, one packet traced on both peers of a trunk, no torn event
# under concurrent writers.
go test ./internal/obs/fidelity -count=10 -race
go test ./internal/core -count=10 -race -run 'TestSampledBroadcastCommitsOneTraceRecord|TestSampledStagesAgreeOnClampedStamps|TestFederationTracesCrossPeerPacket|TestObservabilityPipeline'

# Emulation-clock sleepers: one Waiter per clock, the wall and manual
# waiters, the wall waiter's alarm keeping sub-millisecond deadlines
# (vclock's TestWallWaiterSubMillisecondDeadline,
# TestKickedWaitDisarmsAlarm and TestDroppedWaitersReleaseAlarms run
# with the package), the stall
# clock on the wall waiter, vclock.Every tickers driving scene mobility
# and routing beacons, traffic pumps and scene scripts.
go test ./internal/vclock ./internal/traffic ./internal/script -race -count=10
go test ./internal/sched -race -count=10 -run 'TestScannerWakesForSubMillisecondDue'
go test ./internal/scene -race -count=10 -run 'Ticker'
go test ./internal/e2e -race -count=10 -run 'TestFullStackOverTCP|TestScriptedRunOverTCP'
go test ./internal/chaos -race -count=10 -run 'TestStallClock|TestClockStall'

# Fired-batch delivery: one fire callback per scanner batch with its
# popping clock reading, Pending covering the batch until it returns, a
# writer that parks between bursts woken by the push that finds it
# parked, a receiver reaped on either side of the batch's one session
# lookup. A fired fan's receivers share one pooled wire.Data, a holder
# each: one wrapper per fire batch, never one for two packets, released
# once on every exit (forwarded, drop-oldest, abandoned, queue close),
# the last holder racing none of the others' reads.
go test ./internal/sched -race -count=10 -run 'TestScannerFireObserver|TestScannerBatchObserver|TestDrainVisitsUnfiredReceiversOfAFan'
go test ./internal/core -race -count=10 -run 'TestSendQueueParkedWriterSeesEveryPush|TestDeliverBatchAcrossReapedSession|TestSendQueueMatchesOracle|TestBroadcastOrderSameAtEveryShardCount'
go test ./internal/core -race -count=10 -run 'TestFiredFanSharesOneWrapper|TestFanCutByBatchBoundaryGetsOneWrapperPerBatch|TestDistinctPacketsNeverShareAWrapper|TestDropOldestEvictsSharedWrapper|TestCloseWithFansScheduledClosesLedger'
go test ./internal/wire -race -count=10 -run 'TestSharedDataConcurrentRelease|TestSharedDataRetiresAtLastHolder'
go test ./internal/core -race -count=10 -shards=4 -run 'TestSendQueueParkedWriterSeesEveryPush|TestDeliverBatchAcrossReapedSession|TestDeliveryOrderMatchesSchedule|TestSlowClientDoesNotStallOthers|TestBroadcastFanout|TestClientDisconnectMidFlight'

# One way into the schedule: the due rule (stamp + delay + tx, the
# airtime shift, the floor at ingest and trunk arrival), one push per
# shard per packet for client packets and trunk runs alike, trunk
# receipts counted once scheduled, PushFan as the scanner's one push,
# the schedule's in-order run beside its heap (equal dues split across
# the two, a fan cut at either head, a far-future tail, Drain over both).
go test ./internal/core -race -count=10 -run 'TestScheduledDueRule|TestPushItemsGroupsByShardPreservingOrder|TestTrunkIngestCountsAfterScheduling|TestFederationCrossServerDelivery'
go test ./internal/sched -race -count=10 -run 'TestScannerPushFanFIFO|TestPushFanMatchesSequentialPushes|TestInOrderRun|TestPushFanCutByBatchBoundary'
