package core

// The sharded pipeline: the server core is N independent copies of the
// §3.2 forwarding machinery — each shard owns a slice of the session
// registry, its own schedule + scanner (the heap and its clock loop),
// and its own obs instruments. A session lives on exactly one
// shard, chosen by hashing its VMN id (ShardIndex), and every delivery
// *to* that session is pushed onto that shard's schedule. Ingest for
// disjoint node sets therefore never shares a lock or a schedule, and the
// per-destination FIFO property survives unchanged: all deliveries to
// one client fire from the one scanner goroutine that owns it, in due
// order, into the session's FIFO send queue.
//
// Cross-shard state stays on the Server and is explicit, never
// accidental: the closed flag and writer WaitGroup (front lifecycle),
// the SerializeChannels airtime map (a channel is a shared medium no
// matter where its listeners live), the global conservation counters,
// and the deliver hook (fan-out: one atomic pointer read by every
// shard's scanner).

import (
	"repro/internal/obs"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/wire"
	"sync"
)

// ShardIndex maps a VMN id onto one of n shards. The multiplicative
// (Fibonacci) hash spreads arbitrary operator-assigned id patterns —
// sequential, strided, clustered — evenly across shards; plain modulo
// would degenerate on strided ids. Exported because the routing rule is
// part of the core's observable contract: tests and operators use it to
// predict which shard owns a node.
func ShardIndex(id radio.NodeID, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(id) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(n))
}

// shard is one independent forwarding pipeline.
type shard struct {
	idx     int
	srv     *Server
	scanner *sched.Scanner

	// mu guards sessions. Reads (session lookup on the delivery path,
	// stats aggregation) take the read lock; only register/reap write.
	// Lock ordering: Server.mu, when held at all, is acquired BEFORE any
	// shard.mu, and no two shard locks are ever held together —
	// aggregators visit shards one lock at a time (see lifecycle.go).
	mu       sync.RWMutex
	sessions map[radio.NodeID]*session

	// entered is this shard's slice of poem_schedule_entries_total,
	// registered as poem_shard_entries_total{shard="i"}.
	entered *obs.Counter

	// fid is this shard's deadline accounting. Written only by the
	// owning scanner goroutine, in the fire callback; ShardStats reads
	// its atomics.
	fid *fidelity.Shard

	// fired is deliver's scratch: the session of each item of the batch
	// being fired, resolved under one read of mu. Sized for a full batch
	// once, so it never grows; only the scanner goroutine touches it.
	fired []*session
	// dirty lists the sessions with deliveries staged in the batch being
	// fired, each once, in the order of their first delivery. Sized like
	// fired; only the scanner goroutine touches it.
	dirty []*session
}

func newShard(idx int, srv *Server) *shard {
	sh := &shard{idx: idx, srv: srv, sessions: make(map[radio.NodeID]*session),
		fired: make([]*session, 0, sched.DefaultFireBatch),
		dirty: make([]*session, 0, sched.DefaultFireBatch)}
	sh.scanner = sched.NewScanner(srv.cfg.Clock, sh.fire)
	return sh
}

// shardOf returns the shard owning id's sessions and deliveries.
func (s *Server) shardOf(id radio.NodeID) *shard {
	return s.shards[ShardIndex(id, len(s.shards))]
}

// lookup returns the live session for id, or nil.
func (sh *shard) lookup(id radio.NodeID) *session {
	sh.mu.RLock()
	sess := sh.sessions[id]
	sh.mu.RUnlock()
	return sess
}

// clients returns how many sessions are registered on this shard.
func (sh *shard) clients() int {
	sh.mu.RLock()
	n := len(sh.sessions)
	sh.mu.RUnlock()
	return n
}

// pushFan lists one packet's deliveries to sessions on this shard in one
// schedule-lock acquisition (and at most one scanner kick), counting them
// in the shard's entry counter first: one per target, the shard's term of
// the conservation ledger (Server.entered sums them). Order within
// targets is preserved, so per-destination FIFO is untouched.
func (sh *shard) pushFan(pkt wire.Packet, targets []sched.Target) {
	sh.entered.Add(uint64(len(targets)))
	sh.scanner.PushFan(pkt, targets)
}

// reap removes the session from the registry if the slot is still
// bound to it — a reconnected successor must never be evicted by its
// predecessor's cleanup.
func (sh *shard) reap(sess *session) {
	sh.mu.Lock()
	if sh.sessions[sess.id] == sess {
		delete(sh.sessions, sess.id)
	}
	sh.mu.Unlock()
}

// queueDepth sums the send-queue depths of this shard's sessions.
func (sh *shard) queueDepth() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	total := 0
	for _, sess := range sh.sessions {
		total += sess.q.depth()
	}
	return total
}
