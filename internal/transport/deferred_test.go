package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mbuf"
	"repro/internal/wire"
)

// scriptConn is a net.Conn whose writes the test steps through: every
// Write announces itself on calls — a copy of its bytes and the stack
// of the goroutine it runs on — and returns what the test answers on
// acks. Close unblocks everything, as closing a socket does. Reads
// block until then.
type scriptConn struct {
	net.Conn // nil: only the methods below are ever called
	calls    chan writeCall
	acks     chan error
	closed   chan struct{}
	once     sync.Once
}

type writeCall struct {
	b     []byte
	stack string
}

// onFlusher reports whether the write ran on the connection's flusher
// goroutine rather than inside the sender's own call.
func (w writeCall) onFlusher() bool { return strings.Contains(w.stack, "(*tcpConn).flusher") }

func newScriptConn() *scriptConn {
	return &scriptConn{calls: make(chan writeCall), acks: make(chan error), closed: make(chan struct{})}
}

func (c *scriptConn) Write(b []byte) (int, error) {
	stack := make([]byte, 4<<10)
	call := writeCall{b: append([]byte(nil), b...), stack: string(stack[:runtime.Stack(stack, false)])}
	select {
	case c.calls <- call:
	case <-c.closed:
		return 0, net.ErrClosed
	}
	select {
	case err := <-c.acks:
		if err != nil {
			return 0, err
		}
		return len(b), nil
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *scriptConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// step lets the next Write through with err and returns it.
func (c *scriptConn) step(err error) writeCall {
	w := <-c.calls
	c.acks <- err
	return w
}

// seqs decodes a byte stream of Data frames into their sequence numbers.
func seqs(t *testing.T, stream []byte) []uint32 {
	t.Helper()
	var out []uint32
	for r := bytes.NewReader(stream); r.Len() > 0; {
		m, err := wire.ReadMsg(r)
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, m.(*wire.Data).Pkt.Seq)
	}
	return out
}

func wantInOrder(t *testing.T, got []uint32, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%d frames arrived, want %d", len(got), n)
	}
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("frame %d carries seq %d", i, s)
		}
	}
}

func data(seq uint32, payload []byte) *wire.Data {
	return &wire.Data{Pkt: wire.Packet{Seq: seq, Payload: payload}}
}

// frameLen is the encoded size of a Data frame carrying n payload bytes.
func frameLen(n int) int {
	b, _ := wire.AppendFrame(nil, data(0, make([]byte, n)))
	return len(b)
}

func (t *tcpConn) pending() (n int, flushing bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pend), t.flushing
}

// The point of the change, as a count: while one write is in the
// kernel, every further deferred send only appends, and all of them
// leave in the next write.
func TestDeferredBurstLeavesInTwoWrites(t *testing.T) {
	sc := newScriptConn()
	c := newTCPConn(sc, nil, true)
	defer c.Close()
	payload := make([]byte, 64)
	if err := c.SendDeferred(data(0, payload)); err != nil {
		t.Fatal(err)
	}
	first := <-sc.calls // the flusher is inside Write
	for i := uint32(1); i < 100; i++ {
		if err := c.SendDeferred(data(i, payload)); err != nil {
			t.Fatal(err)
		}
	}
	sc.acks <- nil
	second := sc.step(nil)
	c.flushers.Wait()
	select {
	case w := <-sc.calls:
		t.Fatalf("a third write of %d bytes", len(w.b))
	default:
	}
	if !first.onFlusher() || !second.onFlusher() {
		t.Error("a deferred write ran on the sender's goroutine")
	}
	if got := seqs(t, first.b); len(got) != 1 {
		t.Errorf("first write carries %d frames, want 1", len(got))
	}
	wantInOrder(t, seqs(t, append(first.b, second.b...)), 100)
	if n, flushing := c.pending(); n != 0 || flushing {
		t.Errorf("after the burst: %d bytes pending, flushing=%v", n, flushing)
	}
}

// SendDeferred serializes before it returns: the caller may reuse the
// payload at once, even while the bytes wait behind a write in progress.
func TestDeferredCopiesPayloadBeforeReturning(t *testing.T) {
	sc := newScriptConn()
	c := newTCPConn(sc, nil, true)
	defer c.Close()
	c.SendDeferred(data(0, nil))
	<-sc.calls
	payload := []byte("original")
	if err := c.SendDeferred(data(1, payload)); err != nil {
		t.Fatal(err)
	}
	copy(payload, "SCRIBBLE")
	sc.acks <- nil
	m, err := wire.ReadMsg(bytes.NewReader(sc.step(nil).b))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(m.(*wire.Data).Pkt.Payload); got != "original" {
		t.Errorf("receiver saw %q", got)
	}
}

// Against a peer that takes nothing, a deferring sender stops at the
// bound: pending bytes never exceed it by more than a frame, and
// everything arrives in order once the peer reads. At the bound the
// write happens inside the sender's own call — that is what blocks it.
func TestDeferredBoundedAndBlocking(t *testing.T) {
	sc := newScriptConn()
	c := newTCPConn(sc, nil, true)
	payload := make([]byte, 100)
	frame := frameLen(len(payload))
	total := 4 * pendFlushAt / frame // four bounds' worth
	done := make(chan struct{})
	defer func() { c.Close(); <-done }()
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if err := c.SendDeferred(data(uint32(i), payload)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	// The peer does not take the first write. If it is the sender's own,
	// the sender is parked in it. If it is the flusher's, the flusher
	// holds the write order and the sender parks behind it at the bound:
	// at once if this write already took a bound's worth, else when the
	// bytes pending behind it get there.
	w := <-sc.calls
	for parked := !w.onFlusher() || len(w.b) >= pendFlushAt; !parked; runtime.Gosched() {
		n, _ := c.pending()
		select {
		case <-done: // ran out of frames first: the checks below say why
			parked = true
		default:
			parked = n >= pendFlushAt
		}
	}
	if n, _ := c.pending(); n >= pendFlushAt+frame {
		t.Fatalf("%d bytes pending, bound %d + one frame of %d", n, pendFlushAt, frame)
	}
	// Each write takes everything pending, so no write over the bound
	// means pending bytes never were.
	var stream []byte
	for {
		if len(w.b) >= pendFlushAt+frame {
			t.Fatalf("one write of %d bytes, bound %d + one frame of %d", len(w.b), pendFlushAt, frame)
		}
		stream = append(stream, w.b...)
		sc.acks <- nil
		if len(stream) == total*frame {
			break
		}
		w = <-sc.calls
	}
	<-done
	wantInOrder(t, seqs(t, stream), total)

	// One frame at the bound or over it: no flusher, the caller writes.
	c.flushers.Wait()
	sent := make(chan error, 1)
	go func() { sent <- c.SendDeferred(data(0, make([]byte, pendFlushAt))) }()
	w = <-sc.calls
	if _, flushing := c.pending(); w.onFlusher() || flushing {
		t.Error("a send at the bound was left to a flusher")
	}
	if !strings.Contains(w.stack, "(*tcpConn).SendDeferred") {
		t.Errorf("write at the bound not inside SendDeferred:\n%s", w.stack)
	}
	sc.acks <- nil
	if err := <-sent; err != nil {
		t.Error(err)
	}
}

// Send, SendBatch and Trunk.Send return only after the kernel has the
// bytes — the server's "forwarded" and the cluster's "crossed" are
// those returns. With nothing deferred (every server-side connection)
// the write runs inside the call; behind a flusher either goroutine may
// carry the bytes, but the call still waits for them, and whatever was
// deferred goes first.
func TestSynchronousSendsReturnAfterTheWrite(t *testing.T) {
	big := make([]byte, directPayloadMin)
	cases := []struct {
		name, frame string
		bytes       int
		send        func(c *tcpConn) error
	}{
		{"Send", "(*tcpConn).Send", frameLen(0), func(c *tcpConn) error { return c.Send(data(1, nil)) }},
		{"SendBatch", "(*tcpConn).SendBatch", frameLen(0) + frameLen(len(big)), func(c *tcpConn) error {
			_, err := c.SendBatch([]wire.Msg{data(1, nil), data(2, big)})
			return err
		}},
		{"Trunk.Send", "(*Trunk).Send", frameLen(0), func(c *tcpConn) error {
			return NewTrunk(TrunkConfig{Dial: func() (Conn, error) { return c, nil }}).Send(data(1, nil))
		}},
	}
	for _, tc := range cases {
		for _, behindFlusher := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/behindFlusher=%v", tc.name, behindFlusher), func(t *testing.T) {
				sc := newScriptConn()
				c := newTCPConn(sc, nil, true)
				defer c.Close()
				want := tc.bytes
				if behindFlusher {
					c.SendDeferred(data(0, nil))
					want += frameLen(0)
				}
				returned := make(chan error, 1)
				go func() { returned <- tc.send(c) }()
				var stream []byte
				for len(stream) < want { // a vectored write reaches a plain net.Conn piecewise
					w := <-sc.calls
					if !behindFlusher && !strings.Contains(w.stack, tc.frame) {
						t.Errorf("write outside %s:\n%s", tc.frame, w.stack)
					}
					select {
					case err := <-returned:
						t.Fatalf("returned %v with %d of %d bytes written", err, len(stream), want)
					default:
					}
					stream = append(stream, w.b...)
					sc.acks <- nil
				}
				if err := <-returned; err != nil {
					t.Fatal(err)
				}
				got := seqs(t, stream)
				if behindFlusher {
					wantInOrder(t, got, len(got))
				} else if got[0] != 1 {
					t.Errorf("seqs %v", got)
				}
			})
		}
	}
}

// sendMixed sends frames [0, n) of one flow through a seeded mix of the
// three calls, big payloads included so SendBatch's in-place iovec
// entries run behind a non-empty pending buffer.
func sendMixed(c Conn, flow uint16, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	big := make([]byte, directPayloadMin+100)
	msg := func(seq int) wire.Msg {
		var p []byte
		if rng.Intn(3) == 0 {
			p = big
		}
		return &wire.Data{Pkt: wire.Packet{Flow: flow, Seq: uint32(seq), Payload: p}}
	}
	for seq := 0; seq < n; {
		var err error
		switch k := rng.Intn(6); {
		case k < 3:
			err = c.(DeferredSender).SendDeferred(msg(seq))
			seq++
		case k < 5:
			err = c.Send(msg(seq))
			seq++
		default:
			var ms []wire.Msg
			for i := 1 + rng.Intn(4); i > 0 && seq < n; i-- {
				ms = append(ms, msg(seq))
				seq++
			}
			_, err = c.(BatchSender).SendBatch(ms)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func tcpPair(t *testing.T) (client, server Conn) {
	h := harnesses()[1]
	if h.name != "tcp" {
		t.Fatal("harness order changed")
	}
	client, server, cleanup := h.dial(t)
	t.Cleanup(cleanup)
	return client, server
}

// Whatever is pending always goes first: frames leave in call order
// whichever of the three calls put them there.
func TestOrderAcrossCallKinds(t *testing.T) {
	for _, senders := range []int{1, 4} {
		client, server := tcpPair(t)
		const per = 400
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if err := sendMixed(client, uint16(s), per, int64(7+s)); err != nil {
					t.Errorf("sender %d: %v", s, err)
				}
			}(s)
		}
		next := make([]uint32, senders)
		for i := 0; i < senders*per; i++ {
			m, err := server.Recv()
			if err != nil {
				t.Fatalf("%d senders, message %d: %v", senders, i, err)
			}
			d := m.(*wire.Data)
			if d.Pkt.Seq != next[d.Pkt.Flow] {
				t.Fatalf("%d senders, flow %d: got seq %d, want %d", senders, d.Pkt.Flow, d.Pkt.Seq, next[d.Pkt.Flow])
			}
			next[d.Pkt.Flow]++
		}
		wg.Wait()
	}
}

// After the peer closes, some later send fails and every send after it
// does, whichever call it is; pooled messages are consumed on every
// path, the failing ones included.
func TestWriteErrorSticksAndNothingLeaks(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	pooled := func() wire.Msg {
		buf := mbuf.AllocCopy(pool, []byte("sticky"))
		return wire.AcquireData(wire.Packet{Payload: buf.Bytes(), Buf: buf})
	}
	client, server := tcpPair(t)
	server.Close()
	ds := client.(DeferredSender)
	var err error
	for i := 0; err == nil; i++ {
		if i == 1<<24 {
			t.Fatal("16M deferred sends to a closed peer and no error")
		}
		err = ds.SendDeferred(pooled())
	}
	for i := 0; i < 3; i++ {
		if e := ds.SendDeferred(pooled()); !errors.Is(e, err) {
			t.Errorf("SendDeferred after the error: %v, want %v", e, err)
		}
		if e := client.Send(pooled()); !errors.Is(e, err) {
			t.Errorf("Send after the error: %v, want %v", e, err)
		}
		if n, e := client.(BatchSender).SendBatch([]wire.Msg{pooled(), pooled()}); n != 0 || !errors.Is(e, err) {
			t.Errorf("SendBatch after the error: %d, %v, want 0, %v", n, e, err)
		}
	}
	client.Close()
	if e := ds.SendDeferred(pooled()); e == nil {
		t.Error("SendDeferred after Close succeeded")
	}
	if live := pool.Live(); live != 0 {
		t.Errorf("%d pooled buffers live", live)
	}
}

// Close returns after the flusher has exited, with bytes pending and
// the flusher inside Write when it is called; what was pending is
// dropped and later sends fail.
func TestCloseWaitsForFlusher(t *testing.T) {
	base := runtime.NumGoroutine()
	sc := newScriptConn()
	c := newTCPConn(sc, nil, true)
	c.SendDeferred(data(0, nil))
	<-sc.calls
	c.SendDeferred(data(1, nil))
	if n, flushing := c.pending(); n == 0 || !flushing {
		t.Fatalf("before Close: %d bytes pending, flushing=%v", n, flushing)
	}
	c.Close()
	if _, flushing := c.pending(); flushing {
		t.Error("Close returned with the flusher alive")
	}
	// The flusher's last act is the WaitGroup's Done; its goroutine is
	// off the books a few instructions later.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before the connection existed", n, base)
	}
	if err := c.SendDeferred(data(2, nil)); !errors.Is(err, ErrClosed) {
		t.Errorf("SendDeferred after Close: %v", err)
	}
	if err := c.Send(data(3, nil)); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close: %v", err)
	}
}

// countingConn counts the writes that reach a real socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// BenchmarkTCPClientBurst is the emulation client's send path over
// loopback, 64-byte pooled packets, the peer draining: ns/op is per
// message, writes/msg is counted at the socket.
func BenchmarkTCPClientBurst(b *testing.B) {
	for _, mode := range []string{"send", "deferred"} {
		b.Run(mode, func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			drained := make(chan int64)
			go func() {
				peer, err := l.Accept()
				if err != nil {
					drained <- 0
					return
				}
				n, _ := io.Copy(io.Discard, peer)
				peer.Close()
				drained <- n
			}()
			raw, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			cc := &countingConn{Conn: raw}
			c := newTCPConn(cc, nil, true)
			pkt := wire.Packet{Src: 1, Dst: 2, Channel: 1, Payload: make([]byte, 64)}
			send := c.Send
			if mode == "deferred" {
				send = c.SendDeferred
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt.Seq = uint32(i)
				if err := send(wire.AcquireData(pkt)); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.flush(); err != nil { // behind the flusher: everything sent has left
				b.Fatal(err)
			}
			b.StopTimer()
			c.Close()
			if got, want := <-drained, int64(b.N*frameLen(64)); got != want {
				b.Errorf("peer read %d bytes, want %d", got, want)
			}
			b.ReportMetric(float64(cc.writes.Load())/float64(b.N), "writes/msg")
		})
	}
}

// heldDiscard discards every write, but not while the benchmark holds
// the gate: the peer is "slow" for exactly as long as a burst lasts.
type heldDiscard struct {
	net.Conn
	gate sync.Mutex
}

func (c *heldDiscard) Write(b []byte) (int, error) {
	c.gate.Lock()
	c.gate.Unlock()
	return len(b), nil
}

func (c *heldDiscard) Close() error { return nil }

// BenchmarkDeferredBurstAllocs is one 64-message burst per iteration
// behind a write in progress, then waited out: what a burst allocates
// is its one flusher's start, nothing per message
// (scripts/check_allocs.sh holds it there).
func BenchmarkDeferredBurstAllocs(b *testing.B) {
	hd := &heldDiscard{}
	c := newTCPConn(hd, nil, true)
	pkt := wire.Packet{Src: 1, Dst: 2, Channel: 1, Payload: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hd.gate.Lock()
		for j := 0; j < 64; j++ {
			if err := c.SendDeferred(wire.AcquireData(pkt)); err != nil {
				b.Fatal(err)
			}
		}
		hd.gate.Unlock()
		c.flushers.Wait()
	}
}
