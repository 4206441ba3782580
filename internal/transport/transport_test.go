package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
