package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrTrunkDown is returned by Trunk.Send and Trunk.SendDeferred when a
// write on the connection fails or while the trunk is between reconnect
// attempts: the message was consumed (dropped), and the next attempt is
// deferred until the backoff expires.
var ErrTrunkDown = errors.New("transport: trunk down, backing off")

// Trunk backoff defaults. The floor keeps a flapping peer from being
// hammered with dials; the ceiling keeps recovery prompt once a killed
// peer returns.
const (
	DefaultTrunkMinBackoff = 10 * time.Millisecond
	DefaultTrunkMaxBackoff = 2 * time.Second
)

// trunkPendFlushAt is the encoded size of pending entries at which
// SendDeferred stops deferring and writes on the caller's goroutine:
// the back-pressure a synchronous write gives, with a trunk's pending
// memory under this bound plus one batch per blocked sender. Measured
// on the benchmark's trunk_tcp workload (two federated servers over
// loopback, 2 vCPUs, seed 1, 12 s passes, three runs each, median
// [range]; "synchronous" is one write per batch, as before deferral):
//
//	bound         cpu µs/delivery     rss_mb
//	synchronous   3.25 [3.09, 3.40]   28.8 [28.6, 29.1]
//	  4 KiB       1.80 [1.78, 1.86]   30.2 [30.0, 30.6]
//	  8 KiB       1.77 [1.62, 2.00]   30.6 [30.4, 30.8]
//	 32 KiB       1.71 [1.62, 1.73]   32.2 [31.9, 32.4]
//	256 KiB       1.78 [1.69, 1.96]   34.5 [33.8, 35.1]
//
// CPU per delivery does not depend on the bound and memory grows with
// it. 4 and 8 KiB read the same on both; the larger leaves the write to
// the flusher, off the ingesting reader, more often.
const trunkPendFlushAt = 8 << 10

// TrunkFrameMax bounds the encoded size of one trunk frame, well under
// wire.MaxFrame: the receiving peer reads a TrunkBatch frame into one
// pooled buffer that lives until its last entry fires. Scene frames keep
// to it too.
const TrunkFrameMax = wire.MaxFrame / 4

// trunkFrameFixed and trunkEntryFixed are the encoded sizes of an empty
// TrunkBatch frame and of one entry less its payload, taken from the
// codec so the bound and the frame split cannot drift from it.
var trunkFrameFixed, trunkEntryFixed = func() (int, int) {
	empty, _ := wire.AppendFrame(nil, &wire.TrunkBatch{})
	one, _ := wire.AppendFrame(nil, &wire.TrunkBatch{Entries: make([]wire.TrunkEntry, 1)})
	return len(empty), len(one) - len(empty)
}()

// TrunkConfig configures a Trunk.
type TrunkConfig struct {
	// Dial establishes (and re-establishes) the underlying connection.
	Dial Dialer
	// Hello, when non-nil, is sent first on every fresh connection —
	// the trunk handshake. It must be an unpooled message, since it is
	// re-sent verbatim after every reconnect.
	Hello wire.Msg
	// MinBackoff/MaxBackoff bound the exponential retry delay after a
	// dial or send failure (wall-clock; defaults above).
	MinBackoff, MaxBackoff time.Duration
	// Name labels the trunk for logs and stats.
	Name string
}

// TrunkStats is a snapshot of a trunk's counters, read under one lock:
// every TrunkBatch entry the trunk accepted is, at every instant, in
// exactly one of SentEntries, DroppedBatch and Pending.
type TrunkStats struct {
	Name         string
	Up           bool
	SentMsgs     uint64 // frames written to the live connection
	SentEntries  uint64 // TrunkBatch entries among them
	Dropped      uint64 // messages consumed while down / on write error
	DroppedBatch uint64 // TrunkBatch entries among them
	Pending      uint64 // entries accepted, write outcome not yet known
	Reconnects   uint64 // successful (re)connections
	DialFailures uint64
}

// Trunk is a persistent server-to-server connection that survives peer
// restarts: it lazily (re)dials with exponential backoff and drops —
// never blocks on — traffic that arrives while the peer is unreachable.
// Dropping is the correct federation behavior for scheduled deliveries
// (the trunk's ledger counts them, exactly like queue drops), while
// callers needing reliability (scene replication) retry at their own
// layer on the returned error, once RetryAt has passed.
//
// Entries wait in one pending TrunkBatch and leave together: a burst of
// SendDeferred calls costs one write, split only where a frame would
// pass wire.MaxTrunkEntries or TrunkFrameMax. Send writes on the
// caller's goroutine, after everything pending. Both consume pooled
// messages whether they succeed or not, matching the Conn contract.
// Safe for concurrent senders.
type Trunk struct {
	cfg TrunkConfig

	// mu guards the connection state, the pending batch and the ledger.
	mu        sync.Mutex
	conn      Conn
	closed    bool
	backoff   time.Duration
	nextTry   time.Time
	pend      *wire.TrunkBatch // accepted entries no writer has taken; nil when none
	pendBytes int              // their encoded size
	flushing  bool             // a flusher goroutine is alive
	flushers  sync.WaitGroup   // Add under mu while not closed, so Close can wait

	sentMsgs, sentEntries    uint64
	dropped, droppedBatch    uint64
	pending                  uint64 // entries in pend or in a write in progress
	reconnects, dialFailures uint64

	// wmu is the write order: held from the moment a writer takes pend
	// until its outcome is counted. Taken before mu, never inside it.
	wmu sync.Mutex

	flusherFn func() // t.flusher, bound once so starting a flusher allocates nothing
}

// NewTrunk returns a Trunk; no connection is attempted until the first
// send.
func NewTrunk(cfg TrunkConfig) *Trunk {
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = DefaultTrunkMinBackoff
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		cfg.MaxBackoff = DefaultTrunkMaxBackoff
	}
	t := &Trunk{cfg: cfg}
	t.flusherFn = t.flusher
	return t
}

// SendDeferred hands tb's entries to the trunk and returns without
// waiting for the write: they join the pending batch (their buffer
// references move with them) and tb itself is released. Whatever is
// pending leaves in one write, made by a transient flusher goroutine —
// or, once the pending entries reach trunkPendFlushAt, by this call,
// which then blocks while the peer is slow. Entries whose write fails
// are counted dropped where it fails. While the trunk is down within
// its backoff the entries are dropped and ErrTrunkDown returned at once.
func (t *Trunk) SendDeferred(tb *wire.TrunkBatch) error {
	t.mu.Lock()
	size, err := t.acceptLocked(tb)
	start := err == nil && size < trunkPendFlushAt && !t.flushing
	if start {
		t.flushing = true
		t.flushers.Add(1)
	}
	t.mu.Unlock()
	wire.ReleaseTrunkBatch(tb)
	switch {
	case err != nil:
		return err
	case size >= trunkPendFlushAt:
		t.wmu.Lock()
		err = t.flushLocked()
		t.wmu.Unlock()
	case start:
		go t.flusherFn()
	}
	return err
}

// Send transmits m over the trunk, dialing first if necessary, after
// everything pending, and returns once it is written: a TrunkScene
// never overtakes entries deferred before it. A TrunkBatch takes the
// entries' path (pending, then flushed here). While the peer is
// unreachable (dial failed recently, backoff pending) m is consumed and
// ErrTrunkDown returned immediately — the trunk never blocks the
// forwarding path on a dead peer.
func (t *Trunk) Send(m wire.Msg) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if tb, ok := m.(*wire.TrunkBatch); ok {
		t.mu.Lock()
		_, err := t.acceptLocked(tb)
		t.mu.Unlock()
		wire.ReleaseTrunkBatch(tb)
		if err != nil {
			return err
		}
		return t.flushLocked()
	}
	t.flushLocked() // its failures are counted; m gets its own verdict below
	t.mu.Lock()
	err := t.readyLocked()
	if err != nil {
		t.dropped++
	}
	conn := t.conn
	t.mu.Unlock()
	if err != nil {
		wire.ReleaseMsg(m)
		return err
	}
	err = conn.Send(m) // consumes m, success or not
	t.mu.Lock()
	if err != nil {
		t.dropped++
		t.failLocked(conn)
		err = downErr(err)
	} else {
		t.sentMsgs++
	}
	t.mu.Unlock()
	return err
}

// readyLocked makes sure a connection is up: ErrClosed after Close,
// ErrTrunkDown inside the backoff, else a redial if there is no
// connection — whose failure is ErrTrunkDown too, even when the dialer
// says ErrClosed (a peer's closed listener). t.mu held.
func (t *Trunk) readyLocked() error {
	switch {
	case t.closed:
		return ErrClosed
	case t.conn != nil:
		return nil
	case !t.nextTry.IsZero() && time.Now().Before(t.nextTry):
		return ErrTrunkDown
	}
	if err := t.redialLocked(); err != nil {
		return downErr(err)
	}
	return nil
}

// acceptLocked moves tb's entries into the pending batch and returns the
// pending encoded size, or counts them dropped and returns why. tb keeps
// its wrapper, now empty of entries the trunk owns; the caller releases
// it. t.mu held.
func (t *Trunk) acceptLocked(tb *wire.TrunkBatch) (int, error) {
	n := len(tb.Entries)
	if err := t.readyLocked(); err != nil {
		t.dropped++
		t.droppedBatch += uint64(n)
		return 0, err
	}
	if t.pend == nil {
		t.pend = wire.AcquireTrunkBatch()
	}
	for i := range tb.Entries {
		t.pendBytes += trunkEntryFixed + len(tb.Entries[i].Pkt.Payload)
	}
	t.pend.Entries = append(t.pend.Entries, tb.Entries...)
	clear(tb.Entries) // the references are the pending batch's now
	tb.Entries = tb.Entries[:0]
	t.pending += uint64(n)
	return t.pendBytes, nil
}

// flushLocked is the one write path: it takes the pending batch, writes
// it as frames of at most wire.MaxTrunkEntries entries and
// TrunkFrameMax bytes, and counts the outcome. A write error closes the
// connection, arms the backoff and drops what was not written; a frame
// the codec refuses is dropped alone and the connection kept. t.wmu
// held.
func (t *Trunk) flushLocked() error {
	t.mu.Lock()
	tb, conn, closed := t.pend, t.conn, t.closed
	t.pend, t.pendBytes = nil, 0
	t.mu.Unlock()
	if tb == nil {
		return nil
	}
	n := uint64(len(tb.Entries))
	var frames, sent, refused, refusedEntries uint64
	var err error
	switch {
	case closed:
		err = ErrClosed
	case conn == nil: // went down after these entries were accepted
		err = ErrTrunkDown
	}
	for err == nil && len(tb.Entries) > 0 {
		frame := tb
		if k := frameEntries(tb.Entries); k < len(tb.Entries) {
			frame = wire.AcquireTrunkBatch()
			frame.Entries = append(frame.Entries, tb.Entries[:k]...)
			rest := copy(tb.Entries, tb.Entries[k:])
			clear(tb.Entries[rest:])
			tb.Entries = tb.Entries[:rest]
		}
		k := uint64(len(frame.Entries))
		last := frame == tb
		switch e := conn.Send(frame); { // consumes frame, success or not
		case e == nil:
			frames++
			sent += k
		case errors.Is(e, wire.ErrFrameTooLarge):
			refused++
			refusedEntries += k
		default:
			err = downErr(e)
		}
		if last {
			tb = nil
			break
		}
	}
	t.mu.Lock()
	t.sentMsgs += frames
	t.sentEntries += sent
	t.dropped += refused
	t.droppedBatch += refusedEntries
	if err != nil {
		t.dropped++
		t.droppedBatch += n - sent - refusedEntries
		if conn != nil {
			t.failLocked(conn)
		}
	}
	t.pending -= n
	t.mu.Unlock()
	wire.ReleaseTrunkBatch(tb) // the unwritten rest after an error; no-op when consumed
	return err
}

// frameEntries is how many of es, from the front, fit one frame: at least
// one, at most wire.MaxTrunkEntries, and no more than TrunkFrameMax
// bytes unless the first alone is larger.
func frameEntries(es []wire.TrunkEntry) int {
	size := trunkFrameFixed
	for k := range es {
		size += trunkEntryFixed + len(es[k].Pkt.Payload)
		if k == wire.MaxTrunkEntries || (k > 0 && size > TrunkFrameMax) {
			return k
		}
	}
	return len(es)
}

// flusher writes until it finds nothing pending, then exits: a trunk
// nobody defers on never has one, and there is no channel to wake or
// stop it — Close fails the write it may be blocked in.
func (t *Trunk) flusher() {
	defer t.flushers.Done()
	for {
		t.wmu.Lock()
		t.flushLocked()
		t.wmu.Unlock()
		t.mu.Lock()
		if t.pend == nil {
			t.flushing = false
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
}

// failLocked retires a connection a write failed on and arms the
// backoff. t.mu held.
func (t *Trunk) failLocked(conn Conn) {
	conn.Close()
	if t.conn == conn {
		t.conn = nil
	}
	t.armBackoffLocked()
}

// redialLocked dials and performs the trunk handshake; t.mu held.
func (t *Trunk) redialLocked() error {
	c, err := t.cfg.Dial()
	if err != nil {
		t.dialFailures++
		t.armBackoffLocked()
		return err
	}
	if t.cfg.Hello != nil {
		if err := c.Send(t.cfg.Hello); err != nil {
			c.Close()
			t.armBackoffLocked()
			return err
		}
	}
	// The trunk is send-only; drain (and discard) whatever the peer
	// sends back — a Bye on cluster mismatch, otherwise nothing — so
	// the socket's receive window can't fill and stall sends.
	go drainConn(c)
	t.conn = c
	t.backoff = 0
	t.nextTry = time.Time{}
	t.reconnects++
	return nil
}

func (t *Trunk) armBackoffLocked() {
	if t.backoff == 0 {
		t.backoff = t.cfg.MinBackoff
	} else if t.backoff < t.cfg.MaxBackoff {
		t.backoff *= 2
		if t.backoff > t.cfg.MaxBackoff {
			t.backoff = t.cfg.MaxBackoff
		}
	}
	t.nextTry = time.Now().Add(t.backoff)
}

// downErr is a failed write on the live connection: the trunk has
// retired it and is backing off, so the trunk is down — never ErrClosed,
// which only Close makes it, even when the connection says ErrClosed.
func downErr(err error) error { return fmt.Errorf("%w: %v", ErrTrunkDown, err) }

// drainConn discards inbound messages until the connection dies.
func drainConn(c Conn) {
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		wire.ReleaseMsg(m)
	}
}

// RetryAt is when a trunk that is down may dial again: the end of its
// backoff (zero when none is armed). A caller that must get a message
// through waits for it instead of retrying on a timer of its own.
func (t *Trunk) RetryAt() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextTry
}

// Connected reports whether a live connection is currently established.
func (t *Trunk) Connected() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conn != nil
}

// Stats snapshots the trunk counters.
func (t *Trunk) Stats() TrunkStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TrunkStats{
		Name:         t.cfg.Name,
		Up:           t.conn != nil,
		SentMsgs:     t.sentMsgs,
		SentEntries:  t.sentEntries,
		Dropped:      t.dropped,
		DroppedBatch: t.droppedBatch,
		Pending:      t.pending,
		Reconnects:   t.reconnects,
		DialFailures: t.dialFailures,
	}
}

// Close tears the trunk down: later sends fail with ErrClosed, a write
// in progress fails, and once the flusher has exited whatever is still
// pending is dropped — counted, its buffers freed.
func (t *Trunk) Close() error {
	t.mu.Lock()
	t.closed = true
	c := t.conn
	t.conn = nil
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
	t.flushers.Wait()
	t.wmu.Lock()
	t.flushLocked()
	t.wmu.Unlock()
	return nil
}
