package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/ring"
	"repro/internal/wire"
)

// DefaultSendQueueDepth bounds each session's outbound delivery queue
// when ServerConfig.SendQueueDepth is zero. The depth trades memory per
// client against how deep a burst a slow reader can absorb before the
// drop-oldest policy engages.
const DefaultSendQueueDepth = 256

// outKind discriminates the two message classes a session writer ships.
type outKind uint8

const (
	outData   outKind = iota // a forwarded packet (wire.Data)
	outRadios                // a scene notification (wire.Event)
)

// outMsg is one entry in a session's outbound queue.
type outMsg struct {
	kind outKind
	// sampled marks an outData packet the lifecycle tracing follows, as
	// deliver decided it: the writer times and records its send stage
	// without hashing the packet again.
	sampled bool
	// data is the outData packet due now: one holder of a pooled
	// wrapper that every receiver of the fan it fired in shares. Each
	// way out of the queue — sent, evicted, rejected, abandoned at close
	// — releases that holder once.
	data   *wire.Data
	radios []radio.Radio // outRadios: the VMN's new radio set
}

// sendQueue is the bounded per-session outbound queue of the §3.2
// sending stage. Producers (the scanner's deliver and the scene event
// subscription) never block: when the queue is full the oldest *data*
// entry is discarded — late packets are the least valuable, while radio
// notifications must survive so the client's channel view stays
// current. One writer goroutine drains the queue in FIFO order, which
// is what guarantees per-client deliveries leave in schedule order.
type sendQueue struct {
	mu sync.Mutex
	// ring grows on use: most sessions of a large scene only ever queue
	// their initial radios notification.
	ring   ring.Ring[outMsg]
	limit  int // hard bound on ring.Len()
	closed bool
	// parked records that the writer found the queue empty and is about
	// to block on wake. Only then does a push signal wake, and it clears
	// the flag as it does, so a burst into an awake writer's queue costs
	// no channel operation. close signals regardless.
	parked bool
	wake   chan struct{} // 1-buffered writer wakeup

	// inflight counts entries the writer has popped but not finished
	// processing (forwarded-or-abandoned, counters included). depth
	// includes it, so "every session's depth()==0" means every accepted
	// delivery has been fully accounted — the drain condition the chaos
	// harness's conservation check quiesces on.
	inflight int

	drops          atomic.Uint64 // entries discarded by the slow-client policy
	totalDrops     *obs.Counter  // server-wide aggregate, shared by all sessions
	totalAbandoned *obs.Counter  // data entries that died with the session

	// onDrop, when set (before the session starts), observes each policy
	// discard — the fidelity flight recorder timestamps drops into its
	// event ring. Called under q.mu: it must be lock-free and fast.
	onDrop func()
}

func newSendQueue(limit int, totalDrops, totalAbandoned *obs.Counter) *sendQueue {
	if limit <= 0 {
		limit = DefaultSendQueueDepth
	}
	return &sendQueue{limit: limit, wake: make(chan struct{}, 1),
		totalDrops: totalDrops, totalAbandoned: totalAbandoned}
}

// countDrop charges one policy discard to the session and the server.
func (q *sendQueue) countDrop() {
	q.drops.Add(1)
	if q.totalDrops != nil {
		q.totalDrops.Inc()
	}
	if q.onDrop != nil {
		q.onDrop()
	}
}

// countAbandoned charges one data delivery that died with its session
// (closed-queue push, entries pending at close, or a failed final
// send). Packet conservation needs every accepted delivery to end in
// exactly one of forwarded / queue-dropped / abandoned.
func (q *sendQueue) countAbandoned() {
	if q.totalAbandoned != nil {
		q.totalAbandoned.Inc()
	}
}

// push enqueues m, evicting the oldest data entry when full. It never
// blocks; the return value reports whether m itself was accepted (false
// only when the queue is closed or m is data and the queue holds
// nothing but radio notifications).
func (q *sendQueue) push(m outMsg) bool {
	q.mu.Lock()
	if q.ring.Len() == q.limit && !q.closed {
		// Distinguish "the writer has not been scheduled yet" (a burst
		// outran it — common on few cores) from "the client is wedged"
		// (its writer is parked in conn.Send and not runnable). Yielding
		// lets a healthy writer drain before we resort to dropping;
		// against a wedged one the queue is still full afterwards and
		// drop-oldest engages as intended.
		q.mu.Unlock()
		runtime.Gosched()
		q.mu.Lock()
	}
	if q.closed {
		// The session is over; the delivery dies here. Its holder must
		// still be released (nil-safe — radio notifications carry none)
		// and — for data — the loss accounted, or the conservation
		// ledger would leak one packet per kill race.
		wire.ReleaseData(m.data)
		if m.kind == outData {
			q.countAbandoned()
		}
		q.mu.Unlock()
		return false
	}
	if q.ring.Len() == q.limit {
		if !q.dropOldestDataLocked() {
			// Full of radio notifications (pathological: limit sessions
			// would need limit scene changes queued). Data yields to
			// them; a notification displaces the oldest one. Only data
			// evictions are policy drops: QueueDrops feeds the
			// conservation ledger (Entered == Forwarded + QueueDrops +
			// Abandoned), and a displaced notification never entered it.
			if m.kind == outData {
				q.countDrop()
				wire.ReleaseData(m.data)
				q.mu.Unlock()
				return false
			}
			q.ring.Drop() // a notification holds no buffer
		}
	}
	*q.ring.Push() = m
	signal := q.parked
	q.parked = false
	q.mu.Unlock()
	if signal {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// dropOldestDataLocked discards the oldest data entry, reporting false
// when the queue holds none.
func (q *sendQueue) dropOldestDataLocked() bool {
	for i := 0; i < q.ring.Len(); i++ {
		if q.ring.At(i).kind != outData {
			continue
		}
		// Settle the victim before the shift below overwrites its slot
		// with the notification ahead of it.
		q.countDrop()
		wire.ReleaseData(q.ring.At(i).data)
		// Shift the entries before i up by one slot, then drop the
		// front: O(depth) but only on the overflow path.
		for j := i; j > 0; j-- {
			*q.ring.At(j) = *q.ring.At(j - 1)
		}
		q.ring.Drop()
		return true
	}
	return false
}

// popBatch blocks for at least one entry, then drains up to max entries
// into batch (reusing its storage, growing it as needed) without
// releasing the lock between them. The entries count as in flight until
// done(n) settles them. ok is false once the queue is closed or stop
// closes. Batching is what turns the writer's per-packet syscall into
// one writev per burst: under fan-out the queue holds several deliveries
// by the time the writer wakes, and popping them together costs one lock
// acquisition instead of n.
func (q *sendQueue) popBatch(stop <-chan struct{}, batch []outMsg, max int) (_ []outMsg, ok bool) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return batch[:0], false
		}
		if q.ring.Len() > 0 {
			batch = batch[:0]
			for q.ring.Len() > 0 && len(batch) < max {
				batch = append(batch, *q.ring.At(0))
				q.ring.Drop()
			}
			q.inflight += len(batch) // cleared by done() once accounted
			q.mu.Unlock()
			return batch, true
		}
		q.parked = true // the next push signals wake
		q.mu.Unlock()
		select {
		case <-q.wake:
		case <-stop:
			return batch[:0], false
		}
	}
}

// done marks n popped entries fully processed (their counters updated).
func (q *sendQueue) done(n int) {
	q.mu.Lock()
	q.inflight -= n
	q.mu.Unlock()
}

// close marks the queue dead, abandons whatever is still buffered and
// wakes the writer so it exits. Idempotent: shutdown may run from both
// the session handler and server Close, and the abandonment accounting
// must happen exactly once.
func (q *sendQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	for q.ring.Len() > 0 {
		m := q.ring.At(0)
		wire.ReleaseData(m.data)
		if m.kind == outData {
			q.countAbandoned()
		}
		q.ring.Drop()
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// depth is the number of queued entries plus any popped entry the
// writer has not finished accounting yet.
func (q *sendQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.Len() + q.inflight
}
