package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gatetest"
	"repro/internal/mbuf"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// harness runs the same battery against both transports.
type harness struct {
	name string
	dial func(t *testing.T) (client, server Conn, cleanup func())
}

func harnesses() []harness {
	return []harness{
		{
			name: "inproc",
			dial: func(t *testing.T) (Conn, Conn, func()) {
				l := NewInprocListener()
				var server Conn
				done := make(chan struct{})
				go func() {
					defer close(done)
					s, err := l.Accept()
					if err != nil {
						t.Error(err)
						return
					}
					server = s
				}()
				client, err := l.Dial()
				if err != nil {
					t.Fatal(err)
				}
				<-done
				return client, server, func() { client.Close(); l.Close() }
			},
		},
		{
			name: "tcp",
			dial: func(t *testing.T) (Conn, Conn, func()) {
				l, err := ListenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				var server Conn
				done := make(chan struct{})
				go func() {
					defer close(done)
					s, err := l.Accept()
					if err != nil {
						t.Error(err)
						return
					}
					server = s
				}()
				client, err := DialTCP(l.Addr())
				if err != nil {
					t.Fatal(err)
				}
				<-done
				return client, server, func() { client.Close(); server.Close(); l.Close() }
			},
		},
	}
}

func TestSendRecvBothDirections(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			if err := client.Send(&wire.SyncReq{TC1: 42}); err != nil {
				t.Fatal(err)
			}
			m, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if sr, ok := m.(*wire.SyncReq); !ok || sr.TC1 != 42 {
				t.Fatalf("server got %#v", m)
			}
			if err := server.Send(&wire.SyncReply{TC1: 42, TS2: 43, TS3: 44}); err != nil {
				t.Fatal(err)
			}
			m, err = client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if rp, ok := m.(*wire.SyncReply); !ok || rp.TS3 != 44 {
				t.Fatalf("client got %#v", m)
			}
		})
	}
}

func TestOrderingPreserved(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			const n = 200
			go func() {
				for i := 0; i < n; i++ {
					client.Send(&wire.Data{Pkt: wire.Packet{Seq: uint32(i)}})
				}
			}()
			for i := 0; i < n; i++ {
				m, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if d := m.(*wire.Data); d.Pkt.Seq != uint32(i) {
					t.Fatalf("out of order: got %d want %d", d.Pkt.Seq, i)
				}
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			const senders, per = 8, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := client.Send(&wire.Data{Pkt: wire.Packet{Flow: uint16(s), Seq: uint32(i)}}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			seen := make(map[uint16]uint32)
			for i := 0; i < senders*per; i++ {
				m, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				d := m.(*wire.Data)
				// Per-flow FIFO must hold even with interleaving.
				if d.Pkt.Seq != seen[d.Pkt.Flow] {
					t.Fatalf("flow %d: got seq %d want %d", d.Pkt.Flow, d.Pkt.Seq, seen[d.Pkt.Flow])
				}
				seen[d.Pkt.Flow]++
			}
			wg.Wait()
		})
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, server, cleanup := h.dial(t)
			defer cleanup()
			errc := make(chan error, 1)
			go func() {
				_, err := server.Recv()
				errc <- err
			}()
			time.Sleep(5 * time.Millisecond)
			client.Close()
			select {
			case err := <-errc:
				if err == nil {
					t.Error("Recv returned nil error after close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv never unblocked")
			}
		})
	}
}

func TestSendAfterClose(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			client, _, cleanup := h.dial(t)
			defer cleanup()
			client.Close()
			// The error may surface on the first or a subsequent send
			// (TCP buffers); it must surface within a few attempts.
			var err error
			for i := 0; i < 10 && err == nil; i++ {
				err = client.Send(&wire.Bye{})
				time.Sleep(time.Millisecond)
			}
			if err == nil {
				t.Error("send after close never failed")
			}
		})
	}
}

func TestInprocDrainAfterClose(t *testing.T) {
	client, server := Pipe()
	client.Send(&wire.SyncReq{TC1: 1})
	client.Send(&wire.SyncReq{TC1: 2})
	client.Close()
	// Queued messages remain readable, then EOF.
	for want := 1; want <= 2; want++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("drain %d: %v", want, err)
		}
		if got := int64(m.(*wire.SyncReq).TC1); got != int64(want) {
			t.Errorf("drain %d: got TC1=%v", want, got)
		}
	}
	if _, err := server.Recv(); err != io.EOF {
		t.Errorf("after drain: %v, want EOF", err)
	}
}

// The pipe's ring grows on demand but its bound does not move: with no
// reader the sender parks on message pipeDepth+1, and once the reader
// starts every message arrives in send order — across each doubling,
// including the ones that copy a wrapped ring.
func TestInprocPipeBlocksAtDepthAndKeepsOrder(t *testing.T) {
	client, server := Pipe()
	defer client.Close()
	next := int64(0)
	recv := func() {
		t.Helper()
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", next, err)
		}
		if got := int64(m.(*wire.SyncReq).TC1); got != next {
			t.Fatalf("recv: got TC1=%d, want %d", got, next)
		}
		next++
	}
	// Move head off slot 0 first, so growth has a wrapped ring to copy.
	for i := int64(0); i < 10; i++ {
		client.Send(&wire.SyncReq{TC1: vclock.Time(i)})
	}
	for i := 0; i < 7; i++ {
		recv()
	}
	const total = 7 + pipeDepth + 1
	var sent atomic.Int64
	sent.Store(10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(10); i < total; i++ {
			if err := client.Send(&wire.SyncReq{TC1: vclock.Time(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			sent.Add(1)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < total-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sends completed with room in the pipe", sent.Load(), total-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	if got := sent.Load(); got != total-1 {
		t.Fatalf("%d sends completed with no reader, want %d: send %d must block", got, total-1, pipeDepth+1)
	}
	for next < total {
		recv()
	}
	<-done
}

// queued is every message sent into q and not yet received: what the
// pipeDepth bound applies to.
func (q *pipeQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.Len() + int(q.held.Load())
}

// waitQueued fails the test unless q holds n messages within a few
// seconds.
func waitQueued(t *testing.T, q *pipeQueue, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); q.queued() != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d messages queued, want %d", q.queued(), n)
		}
	}
}

type batchResult struct {
	n   int
	err error
}

// sendBatchAsync starts c.SendBatch(ms) and returns where its result
// lands.
func sendBatchAsync(c Conn, ms []wire.Msg) <-chan batchResult {
	res := make(chan batchResult, 1)
	go func() {
		n, err := c.(BatchSender).SendBatch(ms)
		res <- batchResult{n, err}
	}()
	return res
}

func syncReqs(from, n int) []wire.Msg {
	ms := make([]wire.Msg, n)
	for i := range ms {
		ms[i] = &wire.SyncReq{TC1: vclock.Time(from + i)}
	}
	return ms
}

// A batch larger than the room left in the pipe enters up to the bound
// and no further, waits, and completes in order as the reader drains.
func TestPipeSendBatchWaitsForRoomAndKeepsOrder(t *testing.T) {
	client, server := Pipe()
	defer client.Close()
	const free, batch = 10, 64
	for _, m := range syncReqs(0, pipeDepth-free) {
		client.Send(m)
	}
	res := sendBatchAsync(client, syncReqs(pipeDepth-free, batch))
	q := client.(*pipeConn).out
	waitQueued(t, q, pipeDepth)
	time.Sleep(5 * time.Millisecond)
	select {
	case r := <-res:
		t.Fatalf("SendBatch returned (%d, %v) with %d of its messages past a full pipe", r.n, r.err, batch-free)
	default:
	}
	if got := q.queued(); got != pipeDepth {
		t.Fatalf("%d messages queued, want the bound %d", got, pipeDepth)
	}
	for i := 0; i < pipeDepth-free+batch; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(m.(*wire.SyncReq).TC1); got != i {
			t.Fatalf("recv: got TC1=%d, want %d", got, i)
		}
	}
	select {
	case r := <-res:
		if r.n != batch || r.err != nil {
			t.Fatalf("SendBatch = (%d, %v), want (%d, nil)", r.n, r.err, batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SendBatch never returned after the reader drained the pipe")
	}
}

// Closing the pipe under a blocked SendBatch returns how many entered
// with ErrClosed, and releases the pooled messages that did not: once
// the reader has drained and released what did enter, no buffer is live.
func TestPipeCloseDuringSendBatchReleasesTail(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	client, server := Pipe()
	const free, batch = 10, 64
	for _, m := range syncReqs(0, pipeDepth-free) {
		client.Send(m)
	}
	ms := make([]wire.Msg, batch)
	for i := range ms {
		buf := mbuf.AllocCopy(pool, []byte("tail"))
		ms[i] = wire.AcquireData(wire.Packet{Seq: uint32(i), Payload: buf.Bytes(), Buf: buf})
	}
	res := sendBatchAsync(client, ms)
	waitQueued(t, client.(*pipeConn).out, pipeDepth)
	client.Close()
	select {
	case r := <-res:
		if r.n != free || !errors.Is(r.err, ErrClosed) {
			t.Fatalf("SendBatch = (%d, %v), want (%d, ErrClosed)", r.n, r.err, free)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock SendBatch")
	}
	if live := pool.Live(); live != free {
		t.Fatalf("%d pooled buffers live, want the %d that entered the pipe", live, free)
	}
	received := 0
	for {
		m, err := server.Recv()
		if err != nil {
			break
		}
		received++
		wire.ReleaseMsg(m)
	}
	if received != pipeDepth {
		t.Fatalf("drained %d messages after close, want %d", received, pipeDepth)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d pooled buffers live after the drain", live)
	}
}

// A reader that has taken everything queued into its own ring and
// returned none of it still holds pipeDepth messages: a sender blocks
// until Recv returns one, and that Recv wakes it.
func TestPipeHeldEntriesCountTowardDepth(t *testing.T) {
	client, server := Pipe()
	defer client.Close()
	for _, m := range syncReqs(0, pipeDepth) {
		client.Send(m)
	}
	q := client.(*pipeConn).out
	if !q.take() {
		t.Fatal("take found nothing queued")
	}
	sent := make(chan error, 1)
	go func() { sent <- client.Send(&wire.SyncReq{TC1: pipeDepth}) }()
	select {
	case err := <-sent:
		t.Fatalf("a send returned (%v) while the reader held %d messages", err, pipeDepth)
	case <-time.After(20 * time.Millisecond):
	}
	for i := 0; i <= pipeDepth; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(m.(*wire.SyncReq).TC1); got != i {
			t.Fatalf("recv: got TC1=%d, want %d", got, i)
		}
		if i == 0 {
			select {
			case err := <-sent:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the blocked sender was never woken by the Recv that freed a slot")
			}
		}
	}
}

// Four senders, two sending one message at a time and two in batches of
// every size up to a flush, against one reader that pauses often enough
// for the pipe to fill: each sender's messages arrive in its order, and
// every blocked sender is woken (the test fails on a deadline, not a
// hang).
func TestPipeConcurrentBatchSendersKeepOrder(t *testing.T) {
	client, server := Pipe()
	defer client.Close()
	const senders, per = 4, 3000
	for s := 0; s < senders; s++ {
		go func(s int) {
			msg := func(i int) wire.Msg { return &wire.Data{Pkt: wire.Packet{Flow: uint16(s), Seq: uint32(i)}} }
			for i := 0; i < per; {
				if s%2 == 0 {
					if client.Send(msg(i)) != nil {
						return
					}
					i++
					continue
				}
				k := min(1+(i*7+s)%64, per-i)
				ms := make([]wire.Msg, k)
				for j := range ms {
					ms[j] = msg(i + j)
				}
				if _, err := client.(BatchSender).SendBatch(ms); err != nil {
					return
				}
				i += k
			}
		}(s)
	}
	done := make(chan error, 1)
	var received atomic.Int64
	go func() {
		next := make([]uint32, senders)
		for received.Load() < senders*per {
			m, err := server.Recv()
			if err != nil {
				done <- err
				return
			}
			d := m.(*wire.Data)
			if d.Pkt.Seq != next[d.Pkt.Flow] {
				done <- fmt.Errorf("sender %d: got seq %d, want %d", d.Pkt.Flow, d.Pkt.Seq, next[d.Pkt.Flow])
				return
			}
			next[d.Pkt.Flow]++
			if received.Add(1)%500 == 0 {
				time.Sleep(200 * time.Microsecond) // let the senders fill the pipe
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("received %d of %d messages in 30 s: a wake-up was lost", received.Load(), senders*per)
	}
}

// The server's session writers find a connection's batch send through
// the BatchSender interface; PoolIngress must not hide the pipe's. A
// batch sent through the wrapper arrives in order.
func TestPoolIngressKeepsBatchSend(t *testing.T) {
	pool := mbuf.NewPool()
	inproc := NewInprocListener()
	defer inproc.Close()
	l := PoolIngress(inproc, pool)
	client, err := inproc.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := server.(BatchSender)
	if !ok {
		t.Fatalf("%T is not a BatchSender: PoolIngress hides the pipe's batch send", server)
	}
	const batch = 64
	if n, err := bs.SendBatch(syncReqs(0, batch)); n != batch || err != nil {
		t.Fatalf("SendBatch = (%d, %v), want (%d, nil)", n, err, batch)
	}
	for i := 0; i < batch; i++ {
		m, err := client.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(m.(*wire.SyncReq).TC1); got != i {
			t.Fatalf("recv: got TC1=%d, want %d", got, i)
		}
	}
}

// Over a connection with no batch send, SendAll sends one message at a
// time and, after a failure, releases the tail it did not send.
func TestSendAllReleasesTailAfterFailure(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	client, server := Pipe()
	f := NewFaulty(client, 1)
	f.FailAfter = 3
	ms := make([]wire.Msg, 8)
	for i := range ms {
		buf := mbuf.AllocCopy(pool, []byte("each"))
		ms[i] = wire.AcquireData(wire.Packet{Seq: uint32(i), Payload: buf.Bytes(), Buf: buf})
	}
	if n, err := SendAll(f, ms); n != 3 || !errors.Is(err, ErrClosed) {
		t.Fatalf("SendAll = (%d, %v), want (3, ErrClosed)", n, err)
	}
	for {
		m, err := server.Recv()
		if err != nil {
			break
		}
		wire.ReleaseMsg(m)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d pooled buffers live", live)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	l := NewInprocListener()
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept never unblocked")
	}
	if _, err := l.Dial(); !errors.Is(err, ErrClosed) {
		t.Errorf("Dial after close: %v", err)
	}
}

// TestListenerCloseResetsQueuedConns: a connection dialed and never
// accepted is closed with its listener, as TCP resets a closed
// listener's backlog. Before, its writes queued for no reader until the
// pipe filled and then blocked for good — a federation peer stopped
// right after a trunk dialed it kept the trunk "up" on that connection,
// and every scene frame went nowhere.
func TestListenerCloseResetsQueuedConns(t *testing.T) {
	l := NewInprocListener()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := c.Send(&wire.Bye{Reason: "anyone?"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on a connection the closed listener never accepted: %v", err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("recv on a connection the closed listener never accepted returned a message")
	}
}

func TestTCPListenerAddr(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() == "" || l.Addr() == "127.0.0.1:0" {
		t.Errorf("Addr = %q", l.Addr())
	}
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestManyInprocClients(t *testing.T) {
	l := NewInprocListener()
	defer l.Close()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(m) // echo
				}
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := l.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Send(&wire.SyncReq{TC1: 7}); err != nil {
				t.Error(err)
				return
			}
			m, err := c.Recv()
			if err != nil || m.(*wire.SyncReq).TC1 != 7 {
				t.Errorf("echo failed: %v %v", m, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestFaultyDelay(t *testing.T) {
	client, server := Pipe()
	f := NewFaulty(client, 1)
	f.SendDelay = 10 * time.Millisecond
	start := time.Now()
	if err := f.Send(&wire.Bye{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("send returned too fast: %v", elapsed)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyDrop(t *testing.T) {
	client, server := Pipe()
	f := NewFaulty(client, 42)
	f.DropProb = 1.0
	for i := 0; i < 5; i++ {
		if err := f.Send(&wire.SyncReq{TC1: 1}); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if _, err := server.Recv(); err != io.EOF {
		t.Errorf("dropped messages arrived: %v", err)
	}
}

func TestFaultyFailAfter(t *testing.T) {
	client, _ := Pipe()
	f := NewFaulty(client, 1)
	f.FailAfter = 3
	for i := 0; i < 3; i++ {
		if err := f.Send(&wire.Bye{}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Send(&wire.Bye{}); !errors.Is(err, ErrClosed) {
		t.Errorf("FailAfter: %v", err)
	}
}

func TestLabels(t *testing.T) {
	client, server := Pipe()
	if client.Label() == "" || server.Label() == "" {
		t.Error("empty labels")
	}
	f := NewFaulty(client, 1)
	if f.Label() != fmt.Sprintf("faulty(%s)", client.Label()) {
		t.Errorf("faulty label: %q", f.Label())
	}
}

func BenchmarkTransports(b *testing.B) {
	bench := func(b *testing.B, client, server Conn) {
		msg := &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Payload: make([]byte, 256)}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				if _, err := server.Recv(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.Send(msg); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	}
	b.Run("inproc", func(b *testing.B) {
		client, server := Pipe()
		defer client.Close()
		bench(b, client, server)
	})
	b.Run("tcp", func(b *testing.B) {
		l, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		var server Conn
		accepted := make(chan struct{})
		go func() {
			server, _ = l.Accept()
			close(accepted)
		}()
		client, err := DialTCP(l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		<-accepted
		bench(b, client, server)
	})
}

func TestAllocGatePipeBatchRoundTrip(t *testing.T) {
	gatetest.Allocs(t, "PipeBatchRoundTrip", 2000, 0)
}

// BenchmarkPipeBatchRoundTrip is one session-writer flush across the
// in-process pipe: one 64-message SendBatch, then the 64 Recvs that
// take it. Once the pipe's two rings have grown to a batch it allocates
// nothing (TestAllocGatePipeBatchRoundTrip).
func BenchmarkPipeBatchRoundTrip(b *testing.B) {
	client, server := Pipe()
	defer client.Close()
	bs := server.(BatchSender)
	ms := make([]wire.Msg, 64)
	for i := range ms {
		ms[i] = &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Seq: uint32(i), Payload: make([]byte, 64)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.SendBatch(ms); err != nil {
			b.Fatal(err)
		}
		for range ms {
			if _, err := client.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
