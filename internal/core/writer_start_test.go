package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Tests for the lazy session writer: a session's writer starts with its
// first packet or radio change, never at registration, and a start that
// races the session's end or the server's Close settles every delivery.

// lazyRig is a server on a parked manual clock behind a pooled in-proc
// listener, with VMNs 1..n on a line 30 m apart, each with one radio of
// range 100 m on channel 1, so a broadcast from VMN i reaches i±1..3.
type lazyRig struct {
	clk  *vclock.Manual
	sc   *scene.Scene
	srv  *Server
	pool *mbuf.Pool
	lis  *transport.InprocListener
	stop func()
}

func newLazyRig(t *testing.T, shards, n int) *lazyRig {
	t.Helper()
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Seed: 5, Shards: shards, TickStep: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetLinkModel(1, uniformModel(2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		sc.AddNode(radio.NodeID(i), geom.V(float64(i)*30, 0), oneRadio(1, 100))
	}
	r := &lazyRig{clk: clk, sc: sc, srv: srv, pool: mbuf.NewPool(), lis: transport.NewInprocListener()}
	r.pool.SetLeakCheck(true)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(transport.PoolIngress(r.lis, r.pool)) }()
	var once sync.Once
	r.stop = func() { once.Do(func() { r.lis.Close(); srv.Close(); <-done }) }
	t.Cleanup(r.stop)
	return r
}

// writers returns the VMNs whose registered session has a writer: its
// queue no longer holds the function that would start one. Callers ask
// after their clients' Dials returned, and a Dial's clock sync is
// answered only after register opened the queue.
func (r *lazyRig) writers() []radio.NodeID {
	var ids []radio.NodeID
	for _, sh := range r.srv.shards {
		sh.mu.RLock()
		for id, sess := range sh.sessions {
			sess.q.mu.Lock()
			started := sess.q.start == nil
			sess.q.mu.Unlock()
			if started {
				ids = append(ids, id)
			}
		}
		sh.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// checkLedger fails t unless every delivery ended in exactly one of
// forwarded, queue-dropped or abandoned, and every pooled buffer went
// back (a client may still be reading its last packets out of its
// closed pipe).
func (r *lazyRig) checkLedger(t *testing.T) ServerStats {
	t.Helper()
	st := r.srv.Stats()
	if st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned || st.Scheduled != 0 {
		t.Fatalf("ledger: entered %d != forwarded %d + queueDrops %d + abandoned %d (%d scheduled)",
			st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned, st.Scheduled)
	}
	for deadline := time.Now().Add(5 * time.Second); r.pool.Live() != 0; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers still live after Close", r.pool.Live())
		}
	}
	return st
}

// Registration sends the radio set itself and starts no writer: 32
// clients each hear their set once with no session holding a writer.
// One broadcast then starts the writers of exactly its receivers.
func TestIdleSessionHasNoWriter(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		const n, src = 32, 16
		r := newLazyRig(t, shards, n)
		var heard [n + 1]atomic.Int32
		var got [n + 1]atomic.Int32
		clients := make([]*Client, n+1)
		for i := 1; i <= n; i++ {
			id := radio.NodeID(i)
			c, err := Dial(ClientConfig{ID: id, Dial: r.lis.Dialer(), LocalClock: r.clk, SyncRounds: 1,
				OnRadios: func(rs []radio.Radio) {
					if !slices.Equal(rs, oneRadio(1, 100)) {
						t.Errorf("VMN %v heard %v, the scene holds %v", id, rs, oneRadio(1, 100))
					}
					heard[id].Add(1)
				},
				OnPacket: func(wire.Packet) { got[id].Add(1) }})
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = c
			defer c.Close()
		}
		for i := 1; i <= n; i++ {
			for deadline := time.Now().Add(5 * time.Second); heard[i].Load() == 0; time.Sleep(200 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("VMN %d never heard its radio set", i)
				}
			}
		}
		if w := r.writers(); len(w) != 0 {
			t.Fatalf("sessions %v hold a writer before anything was sent to them", w)
		}

		if err := clients[src].Broadcast(1, 0, []byte("lazy")); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Received != 1; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the broadcast was never ingested")
			}
		}
		r.clk.Set(vclock.FromSeconds(1))
		want := []radio.NodeID{src - 3, src - 2, src - 1, src + 1, src + 2, src + 3}
		for _, id := range want {
			for deadline := time.Now().Add(5 * time.Second); got[id].Load() == 0; time.Sleep(200 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("VMN %v never got the broadcast", id)
				}
			}
		}
		if w := r.writers(); !slices.Equal(w, want) {
			t.Fatalf("sessions %v hold a writer, want exactly the receivers %v", w, want)
		}
		for i := 1; i <= n; i++ {
			if slices.Contains(want, radio.NodeID(i)) != (got[i].Load() == 1) || got[i].Load() > 1 {
				t.Errorf("VMN %d got %d packets", i, got[i].Load())
			}
			if h := heard[i].Load(); h != 1 {
				t.Errorf("VMN %d heard its radio set %d times, want once", i, h)
			}
		}
		for _, c := range clients[1:] {
			c.Close()
		}
		r.stop()
		if st := r.checkLedger(t); st.Entered != uint64(len(want)) || st.Forwarded != uint64(len(want)) {
			t.Fatalf("entered %d, forwarded %d: want %d each", st.Entered, st.Forwarded, len(want))
		}
	})
}

// The first deliveries to fresh sessions start their writers while
// Server.Close runs and while half the clients disconnect. A writer
// start must never Add to the WaitGroup Close is waiting on, every
// delivery must end forwarded, dropped or abandoned, no buffer may leak
// and no goroutine may outlive the server.
func TestWriterStartRacingClose(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		const n, iterations, packets = 16, 50, 4
		base := runtime.NumGoroutine()
		for it := 0; it < iterations; it++ {
			r := newLazyRig(t, shards, n)
			clients := make([]*Client, 0, n)
			for i := 1; i <= n; i++ {
				c, err := Dial(ClientConfig{ID: radio.NodeID(i), Dial: r.lis.Dialer(), LocalClock: r.clk, SyncRounds: 1})
				if err != nil {
					t.Fatal(err)
				}
				clients = append(clients, c)
			}
			// Every other VMN broadcasts, so every session has deliveries
			// due and none has a writer yet.
			for i := 0; i < n; i += 2 {
				for p := 0; p < packets; p++ {
					if err := clients[i].Broadcast(1, 0, []byte("race")); err != nil {
						t.Fatal(err)
					}
				}
			}
			for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Received != n/2*packets; time.Sleep(200 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("iteration %d: ingested %d of %d", it, r.srv.Stats().Received, n/2*packets)
				}
			}
			if w := r.writers(); len(w) != 0 {
				t.Fatalf("iteration %d: sessions %v hold a writer before anything fired", it, w)
			}
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { defer wg.Done(); r.clk.Set(vclock.FromSeconds(1)) }()
			go func() {
				defer wg.Done()
				for i := 1; i < n; i += 2 {
					clients[i].Close()
				}
			}()
			go func() {
				defer wg.Done()
				switch it % 3 {
				case 1:
					runtime.Gosched()
				case 2: // close once some writer has started and sent
					for deadline := time.Now().Add(10 * time.Millisecond); r.srv.Stats().Forwarded == 0 && time.Now().Before(deadline); {
						runtime.Gosched()
					}
				}
				r.stop()
			}()
			wg.Wait()
			for _, c := range clients {
				c.Close()
			}
			r.checkLedger(t)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines outlived their servers (baseline %d):\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
		}
	})
}

// A session reaped while its writer is blocked in Send still owes the
// ledger the batch that writer popped, and Quiesce must wait for it:
// the receiver's client is cut while its writer holds the batch, its
// Send outlives the reap, and only its release ends the batch
// abandoned. Until then nothing is in a schedule or in a registered
// session's queue, yet the pipeline has not drained.
func TestQuiesceWaitsForReapedWritersBatch(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		const packets = 8
		r := newFanRig(t, shards, uniformModel(2*time.Millisecond), nil)
		const slow = radio.NodeID(100)
		r.srv.cfg.Scene.AddNode(slow, geom.V(0, 1), oneRadio(1, 200))
		wedged := newWedgedConn(slow)
		wedged.release = make(chan struct{})
		var releaseOnce sync.Once
		release := func() { releaseOnce.Do(func() { close(wedged.release) }) }
		t.Cleanup(release) // ahead of the rig's stop, whose Close waits for the writer
		go r.srv.Serve(&oneConnListener{conn: wedged})
		await(t, wedged.acked, "the wedged receiver to register")
		base := r.pool.Live()
		r.broadcast(t, packets)
		r.clk.Set(vclock.FromSeconds(1))
		await(t, wedged.stuck, "the wedged receiver's writer to block in Send")
		for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Forwarded < packets*fanReceivers; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("forwarded %d of %d", r.srv.Stats().Forwarded, packets*fanReceivers)
			}
		}
		wedged.Close() // the client is cut: its reader ends and reaps the session
		for deadline := time.Now().Add(5 * time.Second); r.srv.shardOf(slow).lookup(slow) != nil; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the cut session was never reaped")
			}
		}
		if r.srv.Quiesce(50 * time.Millisecond) {
			st := r.srv.Stats()
			t.Fatalf("Quiesce reported drained with the reaped writer's batch unaccounted: entered %d, forwarded %d + queueDrops %d + abandoned %d",
				st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
		}
		release()
		if !r.srv.Quiesce(5 * time.Second) {
			t.Fatal("the pipeline did not drain after the wedged Send was released")
		}
		st := r.srv.Stats()
		if st.Entered != packets*(fanReceivers+1) || st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned {
			t.Fatalf("ledger: entered %d != forwarded %d + queueDrops %d + abandoned %d",
				st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
		}
		if st.Abandoned != packets || st.QueueDrops != 0 {
			t.Fatalf("abandoned %d, queue drops %d: want the reaped receiver's %d abandoned", st.Abandoned, st.QueueDrops, packets)
		}
		// A healthy client may still be reading its last packets out of
		// its pipe: each holds a holder until it has.
		for deadline := time.Now().Add(5 * time.Second); r.pool.Live() != base; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d pooled buffers live after the drain, %d before the broadcasts", r.pool.Live(), base)
			}
		}
	})
}
