package core

// Tests for the sendQueue's accounting and buffer-ownership rules, the
// SerializeChannels airtime-map bound, and the pooled TCP path's
// leak-freedom. The accounting tests pin the drop-oldest ledger rule:
// QueueDrops counts *packets* the policy discarded — a displaced radio
// notification never entered the conservation ledger and must not be
// charged to it.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/linkmodel"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// A notification displacing a notification is queue churn, not packet
// loss: it must not move the QueueDrops counter. (Regression: the old
// dropHeadLocked charged every head eviction, so a session whose queue
// filled with scene notifications inflated QueueDrops and broke
// Entered == Forwarded + QueueDrops + Abandoned.)
func TestSendQueueNotificationEvictionNotCountedAsDrop(t *testing.T) {
	q := newSendQueue(2, nil, nil)
	note := outMsg{kind: outRadios, radios: []radio.Radio{{Channel: 1}}}
	for i := 0; i < 2; i++ {
		if !q.push(note) {
			t.Fatalf("push %d rejected on an empty queue", i)
		}
	}
	// Full of notifications: a third displaces the oldest and is accepted.
	if !q.push(note) {
		t.Fatal("notification rejected by a full-of-notifications queue")
	}
	if got := q.drops.Load(); got != 0 {
		t.Fatalf("displaced notification charged as queue drop: drops = %d, want 0", got)
	}
	// Data yielding to queued notifications IS a packet loss.
	if q.push(outMsg{kind: outData}) {
		t.Fatal("data accepted into a queue full of notifications")
	}
	if got := q.drops.Load(); got != 1 {
		t.Fatalf("rejected data: drops = %d, want 1", got)
	}
}

// Data evicting data is the normal slow-client policy and still counts.
func TestSendQueueDataEvictionCountsDrop(t *testing.T) {
	q := newSendQueue(1, nil, nil)
	q.push(outMsg{kind: outData})
	if !q.push(outMsg{kind: outData}) {
		t.Fatal("second data push should evict and be accepted")
	}
	if got := q.drops.Load(); got != 1 {
		t.Fatalf("data eviction: drops = %d, want 1", got)
	}
}

// Every path an entry can die on inside the queue — evicted, pushed
// after close, abandoned at close — must free its packet buffer.
func TestSendQueueSettlesBuffers(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	mk := func() outMsg {
		b := pool.Alloc(16)
		return outMsg{kind: outData, data: wire.AcquireData(wire.Packet{Payload: b.Bytes(), Buf: b})}
	}
	q := newSendQueue(1, nil, nil)
	q.push(mk())
	q.push(mk()) // evicts the first
	q.push(mk()) // evicts the second
	if live := pool.Live(); live != 1 {
		t.Fatalf("after two evictions: %d live buffers, want 1 (the queued one)", live)
	}
	q.close()
	if live := pool.Live(); live != 0 {
		t.Fatalf("after close: %d live buffers, want 0", live)
	}
	q.push(mk()) // rejected by the closed queue; must free immediately
	if live := pool.Live(); live != 0 {
		t.Fatalf("closed-queue push leaked: %d live buffers, want 0", live)
	}
}

// cutConn is a client that dies mid-flush: it sends the first keep
// messages it is given and fails every one after, consuming each either
// way, as a transport does.
type cutConn struct {
	keep, sent int
}

func (c *cutConn) SendBatch(ms []wire.Msg) (int, error) {
	n := 0
	for _, m := range ms {
		if c.sent < c.keep {
			c.sent++
			n++
		}
		wire.ReleaseMsg(m)
	}
	if n < len(ms) {
		return n, transport.ErrClosed
	}
	return n, nil
}

func (c *cutConn) Send(m wire.Msg) error {
	_, err := c.SendBatch([]wire.Msg{m})
	return err
}

func (c *cutConn) Recv() (wire.Msg, error) { return nil, transport.ErrClosed }
func (c *cutConn) Close() error            { return nil }
func (c *cutConn) Label() string           { return "cut" }

// A flush whose send fails part-way settles the batch in one commit per
// counter: the data entries that reached the wire are forwarded (the
// radios notification among them is not a packet), every one behind
// the failure is abandoned, so forwarded + abandoned is every entry
// queued, the queue reads drained once the batch is done, and each
// entry's buffer is released.
func TestWriteBatchFailingMidBatchSettlesLedger(t *testing.T) {
	srv := newDispatchBench(t, 2, 1)
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	sess := benchSession(1, srv)
	const packets, keep, noteAt = 40, 17, 5
	sess.conn = &cutConn{keep: keep}
	for i := 0; i < packets; i++ {
		if i == noteAt {
			sess.q.push(outMsg{kind: outRadios, radios: oneRadio(1, 100)})
		}
		b := mbuf.AllocCopy(pool, []byte("cut"))
		sess.q.push(outMsg{kind: outData, data: wire.AcquireData(wire.Packet{Seq: uint32(i), Payload: b.Bytes(), Buf: b})})
	}
	batch, ok := sess.q.popBatch(sess.stop, nil, maxFlushBatch)
	if !ok || len(batch) != packets+1 {
		t.Fatalf("popped %d entries (ok=%v), want %d", len(batch), ok, packets+1)
	}
	if _, err := srv.writeBatch(sess, batch, nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("writeBatch: %v, want ErrClosed", err)
	}
	sess.q.done(len(batch))
	const forwarded = keep - 1 // the notification took one of the sent slots
	if got := srv.mForwarded.Load(); got != forwarded {
		t.Errorf("poem_forwarded_total = %d, want %d", got, forwarded)
	}
	if got := sess.forwarded.Load(); got != forwarded {
		t.Errorf("session forwarded = %d, want %d", got, forwarded)
	}
	if got := srv.mAbandoned.Load(); got != packets-forwarded {
		t.Errorf("poem_abandoned_total = %d, want %d", got, packets-forwarded)
	}
	if d := sess.q.depth(); d != 0 {
		t.Errorf("queue depth %d after the batch was done", d)
	}
	if live := pool.Live(); live != 0 {
		t.Errorf("%d pooled buffers live", live)
	}
}

// oracleEntry is a sendQueue entry as the slice oracle sees it.
type oracleEntry struct {
	data bool
	id   uint32 // data: the packet's Seq; notification: its radio's channel
}

func entryOf(m outMsg) oracleEntry {
	if m.kind == outData {
		return oracleEntry{true, m.data.Pkt.Seq}
	}
	return oracleEntry{false, uint32(m.radios[0].Channel)}
}

// The sendQueue against a slice oracle, the way ListQueue is the heap's
// oracle: seeded sequences of data and notification pushes (overflowing
// the bound), non-blocking popBatch, done and close. After every step
// the drop and abandon counts, the depth, the pop order and the pooled
// buffers still live must match. (Regression: dropOldestDataLocked let
// the shift overwrite a victim that had a notification ahead of it, so
// the packet was neither counted nor freed.)
func TestSendQueueMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := mbuf.NewPool()
		pool.SetLeakCheck(true)
		reg := obs.NewRegistry()
		totalDrops, totalAbandoned := reg.Counter("drops", ""), reg.Counter("abandoned", "")
		limit := 1 + rng.Intn(6)
		q := newSendQueue(limit, totalDrops, totalAbandoned)
		stop := make(chan struct{})
		close(stop) // popBatch on an empty queue returns instead of waiting

		var (
			queued, inflight []oracleEntry
			popped           []outMsg // the writer's batch, settled by done
			drops, abandoned uint64
			closed           bool
			next             uint32
		)
		live := func() (n int64) {
			for _, es := range [][]oracleEntry{queued, inflight} {
				for _, e := range es {
					if e.data {
						n++
					}
				}
			}
			return n
		}
		// evict applies the overflow policy to the oracle: the oldest data
		// entry goes and counts, else the oldest notification goes free.
		evict := func(incoming bool) (accept bool) {
			for i, e := range queued {
				if e.data {
					queued = append(queued[:i], queued[i+1:]...)
					drops++
					return true
				}
			}
			if incoming {
				drops++ // data yields to a queue full of notifications
				return false
			}
			queued = queued[1:]
			return true
		}
		for step := 0; step < 200; step++ {
			what := ""
			switch op := rng.Intn(20); {
			case op < 9:
				next++
				what = fmt.Sprintf("push data %d", next)
				b := pool.Alloc(16)
				got := q.push(outMsg{kind: outData, data: wire.AcquireData(wire.Packet{Seq: next, Payload: b.Bytes(), Buf: b})})
				want := !closed && (len(queued) < limit || evict(true))
				if closed {
					abandoned++
				}
				if want {
					queued = append(queued, oracleEntry{true, next})
				}
				if got != want {
					t.Fatalf("seed %d step %d %s: accepted %v, oracle %v", seed, step, what, got, want)
				}
			case op < 13:
				next++
				what = fmt.Sprintf("push notification %d", next)
				got := q.push(outMsg{kind: outRadios, radios: []radio.Radio{{Channel: radio.ChannelID(next)}}})
				want := !closed && (len(queued) < limit || evict(false))
				if want {
					queued = append(queued, oracleEntry{false, next})
				}
				if got != want {
					t.Fatalf("seed %d step %d %s: accepted %v, oracle %v", seed, step, what, got, want)
				}
			case op < 17:
				max := 1 + rng.Intn(4)
				what = fmt.Sprintf("popBatch(%d)", max)
				batch, ok := q.popBatch(stop, nil, max)
				k := len(queued)
				if k > max {
					k = max
				}
				if closed {
					k = 0
				}
				if ok != (k > 0) || len(batch) != k {
					t.Fatalf("seed %d step %d %s: got %d entries ok=%v, oracle %d", seed, step, what, len(batch), ok, k)
				}
				for i, m := range batch {
					if got := entryOf(m); got != queued[i] {
						t.Fatalf("seed %d step %d %s: entry %d is %+v, oracle %+v", seed, step, what, i, got, queued[i])
					}
				}
				inflight = append(inflight, queued[:k]...)
				queued = queued[k:]
				popped = append(popped, batch...)
			case op < 19:
				what = fmt.Sprintf("done(%d)", len(popped))
				for i := range popped {
					wire.ReleaseData(popped[i].data) // the writer's verdict: forwarded
				}
				q.done(len(popped))
				popped, inflight = popped[:0], inflight[:0]
			default:
				what = "close"
				q.close()
				if !closed {
					for _, e := range queued {
						if e.data {
							abandoned++
						}
					}
					queued, closed = nil, true
				}
			}
			if got := q.drops.Load(); got != drops || totalDrops.Load() != drops {
				t.Fatalf("seed %d step %d %s: drops %d (server %d), oracle %d", seed, step, what, got, totalDrops.Load(), drops)
			}
			if got := totalAbandoned.Load(); got != abandoned {
				t.Fatalf("seed %d step %d %s: abandoned %d, oracle %d", seed, step, what, got, abandoned)
			}
			if got, want := q.depth(), len(queued)+len(inflight); got != want {
				t.Fatalf("seed %d step %d %s: depth %d, oracle %d", seed, step, what, got, want)
			}
			if got, want := pool.Live(), live(); got != want {
				t.Fatalf("seed %d step %d %s: %d pooled buffers live, oracle %d", seed, step, what, got, want)
			}
		}
		for i := range popped {
			wire.ReleaseData(popped[i].data)
		}
		q.close()
		if n := pool.Live(); n != 0 {
			t.Fatalf("seed %d: %d pooled buffers live after close", seed, n)
		}
	}
}

// A push signals the writer only when the writer recorded that it is
// about to park, so a push that skips the signal must never leave an
// entry behind a parked writer. Bursts with random gaps run against a
// live writer — some gaps wait until it has drained, so it parks between
// bursts — and every entry must be popped, in order, with the depth back
// at 0. Run under -race; a writer that never records its park (or a push
// that never signals) stalls here.
func TestSendQueueParkedWriterSeesEveryPush(t *testing.T) {
	const bursts, maxBurst = 400, 40
	rng := rand.New(rand.NewSource(1))
	q := newSendQueue(bursts*maxBurst, nil, nil) // no drop-oldest: every push is popped
	stop := make(chan struct{})
	popped := make(chan uint32, bursts*maxBurst)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var batch []outMsg
		for {
			var ok bool
			if batch, ok = q.popBatch(stop, batch, maxFlushBatch); !ok {
				return
			}
			for _, m := range batch {
				popped <- m.data.Pkt.Seq
				wire.ReleaseData(m.data)
			}
			q.done(len(batch))
		}
	}()
	defer func() { close(stop); <-writerDone }()

	pushed := uint32(0)
	for b := 0; b < bursts; b++ {
		for n := 1 + rng.Intn(maxBurst); n > 0; n-- {
			pushed++
			if !q.push(outMsg{kind: outData, data: wire.AcquireData(wire.Packet{Seq: pushed})}) {
				t.Fatalf("push %d rejected", pushed)
			}
		}
		switch rng.Intn(3) {
		case 0: // straight into the next burst
		case 1: // let the writer drain and park
			for deadline := time.Now().Add(5 * time.Second); q.depth() != 0; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("burst %d: depth stuck at %d with the writer parked", b, q.depth())
				}
			}
		default:
			time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
		}
	}
	for want := uint32(1); want <= pushed; want++ {
		select {
		case got := <-popped:
			if got != want {
				t.Fatalf("popped seq %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("popped %d of %d entries: a push was left behind a parked writer (depth %d)",
				want-1, pushed, q.depth())
		}
	}
	for deadline := time.Now().Add(5 * time.Second); q.depth() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("depth %d after every entry was popped, want 0", q.depth())
		}
	}
}

// The SerializeChannels airtime map must not grow without bound under
// channel churn: expired busy-until entries constrain nothing and are
// swept once the map outgrows its watermark.
func TestChanFreePruneBoundsChurn(t *testing.T) {
	clk := vclock.NewManual(0)
	sc := scene.New(radio.NewIndexed(16), clk, 1)
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, SerializeChannels: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Replay ingest's update-then-maybe-sweep sequence across far more
	// channels than the watermark, every airtime already expired.
	now := vclock.FromSeconds(100)
	for ch := 1; ch <= 10*chanFreeMinSweep; ch++ {
		id := radio.ChannelID(ch)
		srv.chanMu.Lock()
		srv.chanFree[id] = now - 1
		if len(srv.chanFree) > srv.chanFreeSweep {
			srv.pruneChanFreeLocked(now, id)
		}
		srv.chanMu.Unlock()
	}
	srv.chanMu.Lock()
	size := len(srv.chanFree)
	srv.chanMu.Unlock()
	if size > 2*chanFreeMinSweep {
		t.Fatalf("chanFree grew to %d entries under churn, want ≤ %d", size, 2*chanFreeMinSweep)
	}

	// A sweep must keep entries that still constrain the future — and the
	// channel being updated, whatever its expiry.
	srv.chanMu.Lock()
	srv.chanFree[radio.ChannelID(1)] = now + vclock.FromSeconds(10)
	srv.chanFree[radio.ChannelID(2)] = now - 1
	srv.pruneChanFreeLocked(now, radio.ChannelID(2))
	_, liveKept := srv.chanFree[radio.ChannelID(1)]
	_, curKept := srv.chanFree[radio.ChannelID(2)]
	srv.chanMu.Unlock()
	if !liveKept {
		t.Fatal("sweep evicted a still-busy channel entry")
	}
	if !curKept {
		t.Fatal("sweep evicted the channel being updated")
	}
}

// End-to-end over real TCP with a pooled listener: after traffic,
// quiesce and teardown, every pooled buffer must be back in the pool.
// Runs the {1, 4} shard matrix like the chaos sweep.
func TestPooledTCPLeakFree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pool := mbuf.NewPool()
			pool.SetLeakCheck(true)
			clk := vclock.NewSystem(50)
			sc := scene.New(radio.NewIndexed(16), clk, 1)
			clean, err := linkmodel.New(linkmodel.NoLoss{},
				linkmodel.ConstantBandwidth{Bps: 1e9}, linkmodel.ConstantDelay{D: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.SetLinkModel(1, clean); err != nil {
				t.Fatal(err)
			}
			sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
			sc.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
			sc.AddNode(3, geom.V(0, 50), oneRadio(1, 200))
			srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			lis, err := transport.ListenTCPWithPool("127.0.0.1:0", pool)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { defer close(done); srv.Serve(lis) }()

			dial := transport.TCPDialer(lis.Addr())
			sk2, sk3 := newSink(), newSink()
			c1, err := Dial(ClientConfig{ID: 1, Dial: dial, LocalClock: clk})
			if err != nil {
				t.Fatal(err)
			}
			c2, err := Dial(ClientConfig{ID: 2, Dial: dial, LocalClock: clk, OnPacket: sk2.on})
			if err != nil {
				t.Fatal(err)
			}
			c3, err := Dial(ClientConfig{ID: 3, Dial: dial, LocalClock: clk, OnPacket: sk3.on})
			if err != nil {
				t.Fatal(err)
			}

			const sends = 200
			for i := 0; i < sends; i++ {
				if err := c1.Broadcast(1, 0, []byte("pooled-tcp-leak-probe")); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for srv.Stats().Received != sends {
				if time.Now().After(deadline) {
					t.Fatalf("server received %d of %d", srv.Stats().Received, sends)
				}
				time.Sleep(time.Millisecond)
			}
			if !srv.Quiesce(10 * time.Second) {
				t.Fatal("pipeline did not drain")
			}
			for sk2.count() != sends || sk3.count() != sends {
				if time.Now().After(deadline) {
					t.Fatalf("sinks got %d/%d of %d", sk2.count(), sk3.count(), sends)
				}
				time.Sleep(time.Millisecond)
			}

			c1.Close()
			c2.Close()
			c3.Close()
			lis.Close()
			srv.Close()
			<-done
			if live := pool.Live(); live != 0 {
				t.Fatalf("mbuf leak: %d pooled buffers still live after teardown", live)
			}
		})
	}
}
