// Package transport carries wire messages between emulation clients and
// the emulation server. Two interchangeable implementations exist:
//
//   - TCP (ListenTCP/DialTCP): the paper's deployment — clients and
//     server as ordinary processes connected via TCP sockets, which is
//     what makes PoEm portable across platforms.
//   - In-process (NewInprocListener): both ends inside one process,
//     used by tests, benchmarks and the compressed-time experiment
//     harness where socket overhead would only add noise.
//
// A Conn is safe for one concurrent reader plus any number of
// concurrent senders, matching how the server's sending threads share a
// client connection (§3.2 step 6). Over TCP every send serializes its
// frame into the connection's pending buffer, and one lock — the write
// order — is held from the moment a writer takes that buffer until its
// bytes are in the kernel, so frames leave in the order the calls
// appended them whichever call put them there. Send and SendBatch
// return only after their bytes were handed to the kernel: the server's
// "forwarded" is that return. SendDeferred (DeferredSender, the
// emulation client's packet path) returns once the frame is pending and
// leaves the write to a flusher goroutine, so a burst of sends costs
// one write, not one each.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/mbuf"
	"repro/internal/ring"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a bidirectional, reliable, ordered message connection.
type Conn interface {
	// Send transmits one message. Safe for concurrent use.
	//
	// Send consumes pooled messages (wire.AcquireData) whether it
	// succeeds or fails: the TCP transport releases them once their
	// bytes are serialized, the in-process transport transfers them to
	// the receiver. Callers must not touch a pooled message after Send.
	// Plain message literals are unaffected.
	Send(m wire.Msg) error
	// Recv blocks for the next message. io.EOF signals an orderly end.
	// Only one goroutine may call Recv. The received message may be
	// pooled; the consumer retires it with wire.ReleaseMsg once
	// processed, exactly once. On every transport a Data payload is valid
	// until then: a dialed TCP connection decodes it in place in its read
	// buffer, an accepted pooled one in a buffer of its own, and the
	// in-process pipe hands over the sender's. Copy a payload to keep it
	// longer. A received *wire.Data may be shared with other receivers
	// (the server hands every receiver of a fired broadcast one wrapper),
	// so it is read-only: neither its Pkt nor its payload bytes may be
	// written.
	Recv() (wire.Msg, error)
	// Close tears the connection down, unblocking Recv on both ends.
	Close() error
	// Label describes the peer for logs.
	Label() string
}

// BatchSender is implemented by connections that can flush several
// messages in one writer syscall (writev). SendBatch consumes every
// pooled message in ms (like Send) and returns how many messages were
// fully transmitted; on error the un-transmitted tail is consumed but
// not sent.
type BatchSender interface {
	SendBatch(ms []wire.Msg) (int, error)
}

// SendAll ships ms on c — in one SendBatch call when c is a BatchSender —
// and returns how many were sent. Like SendBatch it consumes every
// pooled message in ms: after a per-message send fails, the unsent tail
// is released here, so both kinds of connection give the caller the
// same all-consumed guarantee.
func SendAll(c Conn, ms []wire.Msg) (int, error) {
	if bs, ok := c.(BatchSender); ok && len(ms) > 1 {
		return bs.SendBatch(ms)
	}
	for i, m := range ms {
		if err := c.Send(m); err != nil {
			for _, rest := range ms[i+1:] {
				wire.ReleaseMsg(rest)
			}
			return i, err
		}
	}
	return len(ms), nil
}

// DeferredSender is implemented by connections on which a send costs a
// syscall (TCP). SendDeferred serializes m — the payload is copied
// before it returns, and a pooled message is consumed on every path,
// like Send — and returns without waiting for the write: pending frames
// leave together, in call order, in one write. A write failure
// therefore surfaces on a later call, after which every call fails.
// Pending bytes are bounded: at the bound SendDeferred writes on the
// caller's goroutine and blocks while the peer is slow, as Send does.
// A following Send or SendBatch flushes everything deferred before it.
type DeferredSender interface {
	SendDeferred(m wire.Msg) error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the dialable address ("host:port" for TCP).
	Addr() string
}

// Dialer opens a fresh connection to the server. Clients hold a Dialer
// rather than an address so the two transports stay interchangeable.
type Dialer func() (Conn, error)

// ---------------------------------------------------------------------------
// TCP transport

type tcpConn struct {
	c net.Conn

	// rmu is held by Recv, and by Close to return the buffer of a
	// reader that stopped calling Recv mid-frame.
	rmu   sync.Mutex
	rd    frameReader
	alias bool        // dialed: Data payloads alias rd's buffer
	pool  *mbuf.Pool  // accepted, pooled: each frame is copied into its own buffer
	local *mbuf.Local // reader-owned allocation cache over pool, built lazily

	// mu guards what senders append to. Both byte buffers start nil and
	// grow on demand: an idle connection holds nothing.
	mu       sync.Mutex
	pend     []byte         // frames serialized, not yet written
	flushing bool           // a flusher goroutine is alive
	werr     error          // first write error, or ErrClosed after Close; sticky
	flushers sync.WaitGroup // Add under mu while werr is nil, so Close can wait

	// wmu is the write order: held from the moment a writer takes pend
	// until those bytes are written. Taken before mu, never inside it.
	wmu     sync.Mutex
	spare   []byte      // swapped in for pend, so senders append while the kernel copies
	scratch []byte      // SendBatch's serialization buffer
	segs    net.Buffers // SendBatch's segments of scratch and in-place payloads
	wv      net.Buffers // the header net.Buffers.WriteTo consumes
}

// newTCPConn wraps c. Its read buffers come from pool (readBufs when
// nil). A dialed connection decodes Data frames in place, its payloads
// aliasing the read buffer; an accepted one copies every frame, into a
// buffer of its own from pool when there is one, so a packet waiting in
// the schedule never pins a 64 KiB read buffer.
func newTCPConn(c net.Conn, pool *mbuf.Pool, dialed bool) *tcpConn {
	if t, ok := c.(*net.TCPConn); ok {
		// The emulator forwards small frames under latency pressure;
		// Nagle would batch them.
		t.SetNoDelay(true)
	}
	t := &tcpConn{c: c, alias: dialed}
	bufs := pool
	if bufs == nil {
		bufs = readBufs
	}
	if !dialed {
		t.pool = pool
	}
	t.rd.init(c, bufs)
	return t
}

// appendLocked serializes m behind whatever is pending and returns the
// pending byte count. t.mu held.
func (t *tcpConn) appendLocked(m wire.Msg) (int, error) {
	if t.werr != nil {
		return 0, t.werr
	}
	b, err := wire.AppendFrame(t.pend, m)
	t.pend = b
	return len(b), err
}

// flushLocked is the one function that writes to the socket: it takes
// whatever is pending and writes it, followed by tail in the same
// vectored write if there is one. t.wmu held.
func (t *tcpConn) flushLocked(tail net.Buffers) error {
	t.mu.Lock()
	b, err := t.pend, t.werr
	t.pend = t.spare[:0]
	t.mu.Unlock()
	t.spare = b // nothing appends to it before the next swap, which needs wmu
	switch {
	case err != nil:
		return err
	case len(tail) == 0 && len(b) == 0:
		return nil
	case len(tail) == 0:
		_, err = t.c.Write(b)
	default:
		if len(b) > 0 {
			// Only when call kinds are mixed on one connection, which
			// neither the server (never defers) nor the client (never
			// batches) does: not worth a reusable vector.
			tail = append(net.Buffers{b}, tail...)
		}
		// WriteTo consumes its receiver through a pointer: give it a
		// header that lives in t, not one that escapes on every call.
		t.wv = tail
		_, err = t.wv.WriteTo(t.c)
		t.wv = nil
	}
	if err != nil {
		t.mu.Lock()
		if t.werr == nil {
			t.werr = err
		}
		t.mu.Unlock()
	}
	return err
}

func (t *tcpConn) flush() error {
	t.wmu.Lock()
	err := t.flushLocked(nil)
	t.wmu.Unlock()
	return err
}

func (t *tcpConn) Send(m wire.Msg) error {
	t.mu.Lock()
	_, err := t.appendLocked(m)
	t.mu.Unlock()
	wire.ReleaseMsg(m) // Send consumes pooled messages, success or not
	if err != nil {
		return err
	}
	return t.flush()
}

// pendFlushAt is the pending byte count (≈ 300 64-byte frames, tens of
// µs of sending) at which SendDeferred stops deferring and writes on
// the caller's goroutine. That is the back-pressure a blocking Send
// gives, and it keeps a connection's send memory under two buffers of
// this size plus a frame.
const pendFlushAt = 32 << 10

// SendDeferred implements DeferredSender.
func (t *tcpConn) SendDeferred(m wire.Msg) error {
	t.mu.Lock()
	n, err := t.appendLocked(m)
	start := err == nil && n < pendFlushAt && !t.flushing
	if start {
		t.flushing = true
		t.flushers.Add(1)
	}
	t.mu.Unlock()
	wire.ReleaseMsg(m)
	switch {
	case err != nil:
		return err
	case n >= pendFlushAt:
		return t.flush()
	case start:
		go t.flusher()
	}
	return nil
}

// flusher writes until it finds nothing pending, then exits: a
// connection nobody defers on (every server-side one, every trunk, an
// idle client) never has one, and there is no channel to wake or stop
// it — Close fails the write it may be blocked in.
func (t *tcpConn) flusher() {
	defer t.flushers.Done()
	for {
		err := t.flush()
		t.mu.Lock()
		if err != nil || len(t.pend) == 0 {
			t.flushing = false
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
}

// directPayloadMin is the payload size above which SendBatch references
// the payload in the iovec instead of copying it into the coalesce
// buffer: big payloads aren't worth memcpy-ing, small ones aren't worth
// an iovec entry.
const directPayloadMin = 2 << 10

// SendBatch implements BatchSender: the whole batch is serialized into
// one scratch buffer — large Data payloads referenced in place rather
// than copied — and handed to the kernel as a single vectored write.
// One syscall flushes everything the session writer drained, which is
// the §3.2 sending stage's answer to syscall-bound fan-out.
func (t *tcpConn) SendBatch(ms []wire.Msg) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	t.wmu.Lock()
	scratch := t.scratch[:0]
	segs := t.segs[:0]
	seg := 0 // scratch offset where the open coalesce segment starts
	var err error
	for _, m := range ms {
		if d, ok := m.(*wire.Data); ok && len(d.Pkt.Payload) >= directPayloadMin {
			scratch = wire.AppendDataFrame(scratch, &d.Pkt)
			segs = append(segs, scratch[seg:len(scratch):len(scratch)], d.Pkt.Payload)
			seg = len(scratch)
			continue
		}
		if scratch, err = wire.AppendFrame(scratch, m); err != nil {
			break
		}
	}
	sent := 0
	if err == nil {
		if seg < len(scratch) {
			segs = append(segs, scratch[seg:])
		}
		// Frames a Send or SendDeferred left pending go first, in the
		// same write.
		if err = t.flushLocked(segs); err == nil {
			sent = len(ms)
		}
	}
	t.scratch = scratch
	t.segs = segs[:0]
	t.wmu.Unlock()
	for _, m := range ms {
		wire.ReleaseMsg(m)
	}
	return sent, err
}

func (t *tcpConn) Recv() (wire.Msg, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	frame, err := t.rd.next()
	var m wire.Msg
	if err == nil {
		m, err = t.decode(frame)
	}
	if err != nil {
		t.rd.stop(err) // a frame that does not decode ends the stream too
		if t.local != nil {
			t.local.Close() // the reader is done; spill the cache back
			t.local = nil
		}
		if errors.Is(err, net.ErrClosed) {
			err = io.EOF
		}
		return nil, err
	}
	return m, nil
}

func (t *tcpConn) decode(frame []byte) (wire.Msg, error) {
	switch {
	case t.alias && wire.Type(frame[0]) == wire.TypeData:
		t.rd.buf.Retain(1) // the message's, dropped by wire.ReleaseData
		return wire.DecodeFrameRef(frame, t.rd.buf)
	case t.pool != nil:
		// local is confined to the reader (rmu), so the cache needs no
		// lock of its own.
		if t.local == nil {
			t.local = t.pool.NewLocal()
		}
		b := mbuf.AllocCopy(t.local, frame)
		return wire.DecodeFrameRef(b.Bytes(), b)
	default:
		return wire.DecodeFrame(frame)
	}
}

// Close closes the socket — a writer blocked in it returns with an
// error — and returns once the flusher, if one is alive, has exited.
// Bytes still pending are dropped, as an unsent kernel buffer is.
func (t *tcpConn) Close() error {
	t.mu.Lock()
	if t.werr == nil {
		t.werr = ErrClosed
	}
	t.mu.Unlock()
	err := t.c.Close()
	t.flushers.Wait()
	t.rmu.Lock() // a blocked Recv has returned: the socket is closed
	t.rd.stop(net.ErrClosed)
	if t.local != nil {
		t.local.Close()
		t.local = nil
	}
	t.rmu.Unlock()
	return err
}

func (t *tcpConn) Label() string { return t.c.RemoteAddr().String() }

type tcpListener struct {
	l    net.Listener
	pool *mbuf.Pool
}

// ListenTCP starts a TCP listener. Pass "127.0.0.1:0" to let the kernel
// choose a port; read it back from Addr.
func ListenTCP(addr string) (Listener, error) {
	return ListenTCPWithPool(addr, nil)
}

// ListenTCPWithPool is ListenTCP with pooled frame reads: accepted
// connections borrow their read buffers from p, and every frame they
// receive is copied into a buffer of its own from p, which Data
// payloads alias (one copy, out of the read buffer, so a packet waiting
// in the schedule pins only its own bytes). Receivers retire messages
// with wire.ReleaseMsg; the server core does, so this is the deployment
// configuration, and p's Live and leak-check mode cover the read
// buffers too.
func ListenTCPWithPool(addr string, p *mbuf.Pool) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return &tcpListener{l: l, pool: p}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c, t.pool, false), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// DialTCP connects to a PoEm server at addr. The connection decodes Data
// frames in place: a received payload aliases the read buffer until the
// message is released (see Conn.Recv).
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c, nil, true), nil
}

// TCPDialer returns a Dialer for addr.
func TCPDialer(addr string) Dialer {
	return func() (Conn, error) { return DialTCP(addr) }
}

// ---------------------------------------------------------------------------
// In-process transport

// pipeDepth bounds each direction of an in-process pipe.
const pipeDepth = 512

// pipeQueue is one direction of an in-process pipe: a bounded FIFO under
// a mutex. A mutex (rather than a buffered channel) makes the
// closed-check and the enqueue one atomic step — with two channels in a
// select, Go may pick the enqueue even when done is also ready, letting
// a message slip in after the receiver already drained and reported
// EOF. That stranded message would read as a leak to the mbuf
// accounting the chaos harness asserts on.
//
// Messages sit in two rings. Senders append to ring, under mu. The
// receiver — Conn.Recv allows one goroutine — owns out: when out is
// empty it swaps the two under mu, taking everything queued in one lock,
// and then returns messages from out with no lock at all. held counts
// what out still holds, so ring.Len()+held is every message sent and not
// yet received, and that is what the pipeDepth bound applies to.
//
// The rings grow on use: most connections of a large scene only ever
// carry their handshake and clock sync, and two preallocated 512-slot
// rings were 16 KiB of pointer-typed memory per connection.
type pipeQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	ring   ring.Ring[wire.Msg]
	closed bool
	// waiters counts senders blocked on a full pipe. A sender counts
	// itself before it re-checks fullness under mu and waits; the
	// receiver decrements held before it reads waiters, and takes mu to
	// wake them only when there are any. One of the two sees the other's
	// write, so no wake-up is lost and the common receive takes no lock.
	waiters atomic.Int32
	held    atomic.Int32 // entries swapped into out that recv has not returned

	out ring.Ring[wire.Msg] // the receiver's alone, but for take's swap under mu
}

func newPipeQueue() *pipeQueue {
	q := &pipeQueue{}
	q.cond.L = &q.mu
	return q
}

// room returns how many messages may enter before the pipe is full.
// q.mu held.
func (q *pipeQueue) room() int {
	return pipeDepth - q.ring.Len() - int(q.held.Load())
}

// waitRoom blocks until the pipe has room or is closed, and reports
// whether it has room. q.mu held.
func (q *pipeQueue) waitRoom() bool {
	for !q.closed && q.room() <= 0 {
		q.waiters.Add(1)
		if q.room() <= 0 { // a recv that missed the count has freed its slot
			q.cond.Wait()
		}
		q.waiters.Add(-1)
	}
	return !q.closed
}

// send enqueues m, blocking while the pipe holds pipeDepth messages. It
// reports false if the pipe closed (before or while blocked); m was not
// enqueued.
func (q *pipeQueue) send(m wire.Msg) bool {
	q.mu.Lock()
	if !q.waitRoom() {
		q.mu.Unlock()
		return false
	}
	*q.ring.Push() = m
	q.mu.Unlock()
	q.cond.Broadcast()
	return true
}

// sendBatch enqueues ms in order under one lock and returns how many
// entered: all of them, or fewer if the pipe closed. When the pipe fills
// it wakes the receiver and waits for room, so it never goes past
// pipeDepth either.
func (q *pipeQueue) sendBatch(ms []wire.Msg) int {
	n := 0
	q.mu.Lock()
	for n < len(ms) {
		if q.room() <= 0 {
			q.cond.Broadcast() // the receiver may be parked on what is already queued
		}
		if !q.waitRoom() {
			break
		}
		for k := min(q.room(), len(ms)-n); k > 0; k-- {
			*q.ring.Push() = ms[n]
			n++
		}
	}
	q.mu.Unlock()
	q.cond.Broadcast()
	return n
}

// recv dequeues the next message, blocking while the pipe is empty.
// After close, queued messages remain readable (matching TCP, where
// in-flight bytes survive the peer's close); ok=false means closed and
// drained.
func (q *pipeQueue) recv() (wire.Msg, bool) {
	if q.out.Len() == 0 && !q.take() {
		return nil, false
	}
	m := *q.out.At(0)
	q.out.Drop()
	q.held.Add(-1)
	if q.waiters.Load() > 0 {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	return m, true
}

// take moves everything queued into the empty out, blocking while
// nothing is queued; false means closed and drained. The move frees no
// room — held takes over what ring counted — so it wakes no sender.
func (q *pipeQueue) take() bool {
	q.mu.Lock()
	for q.ring.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	n := q.ring.Len()
	if n > 0 {
		q.ring, q.out = q.out, q.ring
		q.held.Store(int32(n))
	}
	q.mu.Unlock()
	return n > 0
}

func (q *pipeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pipeShared is the state common to both halves of an in-process pipe.
type pipeShared struct {
	once sync.Once
	a2b  *pipeQueue
	b2a  *pipeQueue
}

func (s *pipeShared) close() {
	s.once.Do(func() {
		s.a2b.close()
		s.b2a.close()
	})
}

type pipeConn struct {
	shared *pipeShared
	in     *pipeQueue
	out    *pipeQueue
	label  string
}

// Pipe returns a connected pair of in-process Conns. Messages are
// passed by reference; senders must not mutate a message after Send
// (the codec-based TCP path copies implicitly, this path does not).
// Pooled messages transfer ownership to the receiver, which retires
// them with wire.ReleaseMsg; if the pipe is already closed, Send
// retires them itself (the consume-on-failure half of the Conn
// contract).
func Pipe() (client, server Conn) {
	shared := &pipeShared{a2b: newPipeQueue(), b2a: newPipeQueue()}
	return &pipeConn{shared: shared, in: shared.b2a, out: shared.a2b, label: "inproc-server"},
		&pipeConn{shared: shared, in: shared.a2b, out: shared.b2a, label: "inproc-client"}
}

func (p *pipeConn) Send(m wire.Msg) error {
	if !p.out.send(m) {
		wire.ReleaseMsg(m)
		return ErrClosed
	}
	return nil
}

// SendBatch implements BatchSender: the batch enters the pipe in one
// lock (more only when the pipe fills mid-batch). If the pipe closes, the
// messages that did not enter are released.
func (p *pipeConn) SendBatch(ms []wire.Msg) (int, error) {
	n := p.out.sendBatch(ms)
	if n == len(ms) {
		return n, nil
	}
	for _, m := range ms[n:] {
		wire.ReleaseMsg(m)
	}
	return n, ErrClosed
}

func (p *pipeConn) Recv() (wire.Msg, error) {
	m, ok := p.in.recv()
	if !ok {
		return nil, io.EOF
	}
	return m, nil
}

func (p *pipeConn) Close() error {
	p.shared.close()
	return nil
}

func (p *pipeConn) Label() string { return p.label }

// ---------------------------------------------------------------------------
// Pooled ingress wrapper

// PoolIngress wraps a Listener so every inbound Data payload is repacked
// into a buffer from p before the server core sees it. The TCP transport
// pools reads natively (ListenTCPWithPool); this wrapper gives the
// in-process transport — and therefore the chaos harness — the same
// pooled ownership path end to end, so the harness's leak-check mode
// actually exercises every Retain/Free the production server performs.
func PoolIngress(l Listener, p *mbuf.Pool) Listener {
	return &poolIngressListener{l: l, pool: p}
}

type poolIngressListener struct {
	l    Listener
	pool *mbuf.Pool
}

func (l *poolIngressListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return &poolIngressConn{Conn: c, pool: l.pool}, nil
}

func (l *poolIngressListener) Close() error { return l.l.Close() }
func (l *poolIngressListener) Addr() string { return l.l.Addr() }

type poolIngressConn struct {
	Conn
	pool *mbuf.Pool
}

// SendBatch implements BatchSender whatever the wrapped connection is:
// the embedded Conn alone would hide the wrapped one's batch send from
// the server's session writers.
func (c *poolIngressConn) SendBatch(ms []wire.Msg) (int, error) {
	return SendAll(c.Conn, ms)
}

func (c *poolIngressConn) Recv() (wire.Msg, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	d, ok := m.(*wire.Data)
	if !ok || d.Pkt.Buf != nil {
		return m, nil // not a packet, or already pooled upstream
	}
	buf := mbuf.AllocCopy(c.pool, d.Pkt.Payload)
	pkt := d.Pkt
	pkt.Payload = buf.Bytes()
	pkt.Buf = buf
	repacked := wire.AcquireData(pkt)
	wire.ReleaseMsg(m)
	return repacked, nil
}

// inprocListener hands the server halves of Pipe pairs to Accept.
type inprocListener struct {
	mu     sync.Mutex
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

// NewInprocListener returns an in-process Listener. Use its Dial method
// (or Dialer) from clients.
func NewInprocListener() *InprocListener {
	return &InprocListener{inner: &inprocListener{
		accept: make(chan Conn, 64),
		done:   make(chan struct{}),
	}}
}

// InprocListener is the concrete in-process listener; it satisfies
// Listener and additionally offers Dial.
type InprocListener struct {
	inner *inprocListener
}

// Accept implements Listener.
func (l *InprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.inner.accept:
		return c, nil
	case <-l.inner.done:
		return nil, ErrClosed
	}
}

// Close implements Listener. Connections dialed but not yet accepted are
// closed, as a TCP connection in a closed listener's backlog is reset:
// their dialers' writes fail instead of queueing for no reader.
func (l *InprocListener) Close() error {
	l.inner.once.Do(func() { close(l.inner.done) })
	l.inner.mu.Lock()
	defer l.inner.mu.Unlock()
	for {
		select {
		case c := <-l.inner.accept:
			c.Close()
		default:
			return nil
		}
	}
}

// Addr implements Listener.
func (l *InprocListener) Addr() string { return "inproc" }

// Dial opens a new client connection to this listener.
func (l *InprocListener) Dial() (Conn, error) {
	l.inner.mu.Lock() // Close drains the queue after any Dial in progress
	defer l.inner.mu.Unlock()
	select {
	case <-l.inner.done:
		return nil, ErrClosed
	default:
	}
	client, server := Pipe()
	select {
	case l.inner.accept <- server:
		return client, nil
	case <-l.inner.done:
		return nil, ErrClosed
	}
}

// Dialer returns a Dialer bound to this listener.
func (l *InprocListener) Dialer() Dialer { return l.Dial }
