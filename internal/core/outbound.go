package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/wire"
)

// DefaultSendQueueDepth bounds each session's outbound delivery queue
// when ServerConfig.SendQueueDepth is zero. The depth trades memory per
// client against how deep a burst a slow reader can absorb before the
// drop-oldest policy engages.
const DefaultSendQueueDepth = 256

// outMsg is one entry in a session's outbound queue: a forwarded packet.
type outMsg struct {
	// data is the packet due now: one holder of a pooled wrapper that
	// every receiver of the fan it fired in shares. Each way out of the
	// queue — sent, evicted, rejected, abandoned at close — releases that
	// holder once.
	data *wire.Data
	// sampled marks a packet the lifecycle tracing follows, as deliver
	// decided it: the writer times and records its send stage without
	// hashing the packet again.
	sampled bool
}

// sendQueue is the bounded per-session outbound queue of the §3.2
// sending stage. Producers (the scanner's deliver) never block: when the
// queue is full the oldest packet is discarded — late packets are the
// least valuable. One writer goroutine drains the queue in FIFO order,
// which is what guarantees per-client deliveries leave in schedule
// order. The writer starts with the queue's first push or notify after
// registration opened it (open), so a session that never receives
// anything never holds one.
//
// A change of the VMN's radio set is not an entry: notify raises the
// radios flag, and the writer that pops it reads the current set from
// the scene and sends it ahead of the packets popped with it. Changes
// the writer has not yet seen collapse into one notification carrying
// the newest set, and a notification never takes a slot, never counts
// in depth and is never dropped.
type sendQueue struct {
	mu sync.Mutex
	// ring grows on use: most sessions of a large scene never queue a
	// packet.
	ring   ring.Ring[outMsg]
	limit  int  // hard bound on ring.Len()
	radios bool // the radio set changed since the writer last popped
	closed bool
	// parked records that the writer found the queue empty and is about
	// to block on wake. Only then does a push or notify signal wake, and
	// it clears the flag as it does, so a burst into an awake writer's
	// queue costs no channel operation. close signals regardless.
	parked bool
	wake   chan struct{} // the writer's 1-buffered wakeup, made when it first parks
	// start is the session whose writer the queue launches while it has
	// none yet: open installs it, and the first push or notify after that
	// takes it and starts the writer outside mu. nil before open, once
	// taken and after close; a queue no server opened never starts one.
	start *session

	drops          atomic.Uint64 // entries discarded by the slow-client policy
	totalDrops     *obs.Counter  // server-wide aggregate, shared by all sessions
	totalAbandoned *obs.Counter  // entries that died with the session
}

func newSendQueue(limit int, totalDrops, totalAbandoned *obs.Counter) *sendQueue {
	if limit <= 0 {
		limit = DefaultSendQueueDepth
	}
	return &sendQueue{limit: limit, totalDrops: totalDrops, totalAbandoned: totalAbandoned}
}

// countDrop charges one policy discard to the session and the server.
func (q *sendQueue) countDrop() {
	q.drops.Add(1)
	if q.totalDrops != nil {
		q.totalDrops.Inc()
	}
}

// countAbandoned charges one delivery that died with its session
// (closed-queue push, entries pending at close, or a failed final
// send). Packet conservation needs every accepted delivery to end in
// exactly one of forwarded / queue-dropped / abandoned.
func (q *sendQueue) countAbandoned() {
	if q.totalAbandoned != nil {
		q.totalAbandoned.Inc()
	}
}

// push enqueues run in order under one lock, each entry evicting the
// oldest when the queue is full, and never blocks. An entry that finds
// the queue full first wakes the writer if it parked and yields, as a
// single push did, so a healthy writer gets to drain before drop-oldest
// engages. Survivors, drops and abandonments are those of pushing the
// entries one at a time: on a closed queue every entry is abandoned,
// and with no writer draining, a run longer than the bound leaves only
// its newest entries queued. The return value reports whether the whole
// run was accepted (false only when the queue is closed).
func (q *sendQueue) push(run []outMsg) bool {
	q.mu.Lock()
	for i := range run {
		if q.ring.Len() == q.limit && !q.closed {
			// Distinguish "the writer has not been scheduled yet" (a burst
			// outran it — common on few cores) from "the client is wedged"
			// (its writer is parked in conn.Send and not runnable). Yielding
			// lets a healthy writer drain before we resort to dropping;
			// against a wedged one the queue is still full afterwards and
			// drop-oldest engages as intended. A writer that parked before
			// the run is healthy and is woken first; it gets a second
			// yield, because one yield may return straight to us (the
			// scheduler's periodic turn for the global run queue).
			if q.unlockAndWake() {
				runtime.Gosched()
			}
			runtime.Gosched()
			q.mu.Lock()
		}
		if q.closed {
			// The session is over; the deliveries die here. Their holders
			// must still be released and the losses accounted, or the
			// conservation ledger would leak one packet per kill race.
			for j := i; j < len(run); j++ {
				wire.ReleaseData(run[j].data)
				q.countAbandoned()
			}
			q.mu.Unlock()
			return false
		}
		if q.ring.Len() == q.limit {
			// Counted after the release: a ledger that balances finds
			// no evicted buffer still live.
			wire.ReleaseData(q.ring.At(0).data)
			q.ring.Drop()
			q.countDrop()
		}
		*q.ring.Push() = run[i]
	}
	q.unlockAndWake()
	return true
}

// notify records that the VMN's radio set changed; the writer's next
// pop reports it. It never blocks and takes no slot.
func (q *sendQueue) notify() {
	q.mu.Lock()
	q.radios = true
	q.unlockAndWake()
}

// open makes sess the session whose writer the queue launches, and
// launches it at once if a push or notify came while the queue had none.
func (q *sendQueue) open(sess *session) {
	q.mu.Lock()
	if !q.closed {
		q.start = sess
	}
	if q.ring.Len() == 0 && !q.radios {
		q.mu.Unlock()
		return
	}
	q.unlockAndWake()
}

// unlockAndWake releases q.mu, then starts the writer if the queue has
// none yet or signals wake if the writer recorded that it parked,
// reporting whether it did either.
func (q *sendQueue) unlockAndWake() bool {
	signal, start, wake := q.parked, q.start, q.wake
	q.parked, q.start = false, nil
	q.mu.Unlock()
	if start != nil {
		start.srv.startWriter(start)
		return true
	}
	if signal {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	return signal
}

// popBatch blocks for at least one entry or a raised radios flag, then
// drains up to max entries into batch (reusing its storage, growing it
// as needed) without releasing the lock between them, and takes the
// flag: radios reports that the radio set changed since the previous
// pop, and the writer sends the current set ahead of the batch, so no
// entry pushed after a change leaves before it. Popped entries are the
// writer's to account: the ledger, not depth, counts them until they
// end forwarded or abandoned. ok is false once the queue is closed.
// Batching is what turns the writer's per-packet syscall into one
// writev per burst: under fan-out the queue holds several deliveries by
// the time the writer wakes, and popping them together costs one lock
// acquisition instead of n.
func (q *sendQueue) popBatch(batch []outMsg, max int) (_ []outMsg, radios, ok bool) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return batch[:0], false, false
		}
		if q.ring.Len() > 0 || q.radios {
			batch = batch[:0]
			for q.ring.Len() > 0 && len(batch) < max {
				batch = append(batch, *q.ring.At(0))
				q.ring.Drop()
			}
			radios, q.radios = q.radios, false
			q.mu.Unlock()
			return batch, radios, true
		}
		q.parked = true // the next push or notify signals wake
		if q.wake == nil {
			q.wake = make(chan struct{}, 1)
		}
		wake := q.wake
		q.mu.Unlock()
		<-wake
	}
}

// close marks the queue dead, abandons whatever is still buffered and
// wakes the writer so it exits; a queue that has no writer yet never
// starts one. Idempotent: the session's reader and server Close may
// both end the session, and the abandonment accounting must happen
// exactly once.
func (q *sendQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.start = nil
	for q.ring.Len() > 0 {
		wire.ReleaseData(q.ring.At(0).data)
		q.countAbandoned()
		q.ring.Drop()
	}
	wake := q.wake // nil: no writer ever parked, none will
	q.mu.Unlock()
	select {
	case wake <- struct{}{}:
	default:
	}
}

// depth is the number of entries waiting in the queue; a batch the
// writer has popped is no longer among them. A raised radios flag is
// not counted: it is no packet.
func (q *sendQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.Len()
}
