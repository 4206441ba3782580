package core

// Tests for the sendQueue's accounting and buffer-ownership rules, its
// radios flag, the SerializeChannels airtime-map bound, and the pooled
// TCP path's leak-freedom. The accounting tests pin the drop-oldest
// ledger rule: QueueDrops counts packets the policy discarded, and a
// radio notification, which takes no slot, is never one of them.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
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

// A full queue evicts its oldest packet, and that counts as a drop.
func TestSendQueueDataEvictionCountsDrop(t *testing.T) {
	q := newSendQueue(1, nil, nil)
	q.push([]outMsg{{}})
	if !q.push([]outMsg{{}}) {
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
		return outMsg{data: wire.AcquireData(wire.Packet{Payload: b.Bytes(), Buf: b})}
	}
	q := newSendQueue(1, nil, nil)
	q.push([]outMsg{mk()})
	q.push([]outMsg{mk()}) // evicts the first
	q.push([]outMsg{mk()}) // evicts the second
	if live := pool.Live(); live != 1 {
		t.Fatalf("after two evictions: %d live buffers, want 1 (the queued one)", live)
	}
	q.close()
	if live := pool.Live(); live != 0 {
		t.Fatalf("after close: %d live buffers, want 0", live)
	}
	q.push([]outMsg{mk(), mk()}) // rejected by the closed queue; must free immediately
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
// radios notification sent ahead of them is not a packet), every one
// behind the failure is abandoned, so forwarded + abandoned is every
// entry queued, the queue reads drained, and each entry's buffer is
// released.
func TestWriteBatchFailingMidBatchSettlesLedger(t *testing.T) {
	srv := newDispatchBench(t, 2, 1)
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	sess := benchSession(1, srv)
	const packets, keep, noteAt = 40, 17, 5
	sess.conn = &cutConn{keep: keep}
	for i := 0; i < packets; i++ {
		if i == noteAt {
			sess.q.notify()
		}
		b := mbuf.AllocCopy(pool, []byte("cut"))
		sess.q.push([]outMsg{{data: wire.AcquireData(wire.Packet{Seq: uint32(i), Payload: b.Bytes(), Buf: b})}})
	}
	batch, radios, ok := sess.q.popBatch(nil, maxFlushBatch)
	if !ok || !radios || len(batch) != packets {
		t.Fatalf("popped %d entries (radios=%v ok=%v), want %d and the radios flag", len(batch), radios, ok, packets)
	}
	if _, err := srv.writeBatch(sess, srv.radiosEvent(sess.id), batch, nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("writeBatch: %v, want ErrClosed", err)
	}
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
		t.Errorf("queue depth %d after the batch was written", d)
	}
	if live := pool.Live(); live != 0 {
		t.Errorf("%d pooled buffers live", live)
	}
}

// The sendQueue against a slice oracle, the way ListQueue is the heap's
// oracle: seeded sequences of pushes (single entries and runs of up to
// twice the bound, overflowing it, also onto a closed queue), notifies,
// popBatch (one the oracle says would park checks that the queue holds
// nothing instead of blocking), the writer settling its popped batch and
// close. Depth counts the entries queued, not a popped batch. In the
// oracle a run is its entries pushed one at a time. A notify is a flag
// in the oracle: the next pop that returns reports it, however many
// notifies it collapses.
// After every step the drop and abandon counts, the depth, the pop order
// and the pooled buffers still live must match.
func TestSendQueueMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := mbuf.NewPool()
		pool.SetLeakCheck(true)
		reg := obs.NewRegistry()
		totalDrops, totalAbandoned := reg.Counter("drops", ""), reg.Counter("abandoned", "")
		limit := 1 + rng.Intn(6)
		q := newSendQueue(limit, totalDrops, totalAbandoned)

		var (
			queued           []uint32 // packet seqs
			popped           []outMsg // the writer's batch, until it settles it
			drops, abandoned uint64
			radios, closed   bool
			next             uint32
		)
		for step := 0; step < 200; step++ {
			what := ""
			switch op := rng.Intn(20); {
			case op < 9:
				n := 1
				if rng.Intn(2) == 0 {
					n = 1 + rng.Intn(2*limit)
				}
				what = fmt.Sprintf("push run %d..%d", next+1, next+uint32(n))
				run := make([]outMsg, n)
				for i := range run {
					next++
					b := pool.Alloc(16)
					run[i] = outMsg{data: wire.AcquireData(wire.Packet{Seq: next, Payload: b.Bytes(), Buf: b})}
					if closed {
						abandoned++
						continue
					}
					if len(queued) == limit {
						queued = queued[1:] // drop-oldest
						drops++
					}
					queued = append(queued, next)
				}
				if got := q.push(run); got != !closed {
					t.Fatalf("seed %d step %d %s: accepted %v, oracle %v", seed, step, what, got, !closed)
				}
			case op < 13:
				what = "notify"
				q.notify()
				radios = true
			case op < 17:
				max := 1 + rng.Intn(4)
				what = fmt.Sprintf("popBatch(%d)", max)
				k := min(len(queued), max)
				wantOK := !closed && (k > 0 || radios)
				if !wantOK {
					k = 0
				}
				if !closed && !wantOK {
					// The writer would park: the queue must hold nothing
					// for it, as the oracle says, and the pop is not made.
					q.mu.Lock()
					held, flag := q.ring.Len(), q.radios
					q.mu.Unlock()
					if held != 0 || flag {
						t.Fatalf("seed %d step %d %s: queue holds %d entries radios=%v, oracle nothing",
							seed, step, what, held, flag)
					}
					break
				}
				batch, gotRadios, ok := q.popBatch(nil, max)
				if ok != wantOK || len(batch) != k || gotRadios != (wantOK && radios) {
					t.Fatalf("seed %d step %d %s: got %d entries radios=%v ok=%v, oracle %d radios=%v ok=%v",
						seed, step, what, len(batch), gotRadios, ok, k, wantOK && radios, wantOK)
				}
				for i, m := range batch {
					if got := m.data.Pkt.Seq; got != queued[i] {
						t.Fatalf("seed %d step %d %s: entry %d is %d, oracle %d", seed, step, what, i, got, queued[i])
					}
				}
				if wantOK {
					radios = false
				}
				queued = queued[k:]
				popped = append(popped, batch...)
			case op < 19:
				what = fmt.Sprintf("settle %d popped", len(popped))
				for i := range popped {
					wire.ReleaseData(popped[i].data) // the writer's verdict: forwarded
				}
				popped = popped[:0]
			default:
				what = "close"
				q.close()
				if !closed {
					abandoned += uint64(len(queued))
					queued, closed = nil, true
				}
			}
			if got := q.drops.Load(); got != drops || totalDrops.Load() != drops {
				t.Fatalf("seed %d step %d %s: drops %d (server %d), oracle %d", seed, step, what, got, totalDrops.Load(), drops)
			}
			if got := totalAbandoned.Load(); got != abandoned {
				t.Fatalf("seed %d step %d %s: abandoned %d, oracle %d", seed, step, what, got, abandoned)
			}
			if got, want := q.depth(), len(queued); got != want {
				t.Fatalf("seed %d step %d %s: depth %d, oracle %d", seed, step, what, got, want)
			}
			if got, want := pool.Live(), int64(len(queued)+len(popped)); got != want {
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

// gateConn is a client connection that records what the server sends
// it. Every send after the first (the HelloAck) reports on entered and
// waits for release, so a test can pile entries into the queue behind a
// writer that is mid-send. Close releases it too.
type gateConn struct {
	entered chan struct{}
	open    chan struct{}
	once    sync.Once

	mu   sync.Mutex
	sent []wire.Msg // data released, its Seq kept in the record
}

func newGateConn() *gateConn {
	return &gateConn{entered: make(chan struct{}, 1), open: make(chan struct{})}
}

func (c *gateConn) SendBatch(ms []wire.Msg) (int, error) {
	c.mu.Lock()
	first := len(c.sent) == 0
	c.mu.Unlock()
	if !first {
		select {
		case c.entered <- struct{}{}:
		default:
		}
		<-c.open
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range ms {
		if d, ok := m.(*wire.Data); ok {
			c.sent = append(c.sent, &wire.Data{Pkt: wire.Packet{Seq: d.Pkt.Seq}})
			wire.ReleaseData(d)
			continue
		}
		c.sent = append(c.sent, m)
	}
	return len(ms), nil
}

func (c *gateConn) Send(m wire.Msg) error {
	_, err := c.SendBatch([]wire.Msg{m})
	return err
}

func (c *gateConn) record() []wire.Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.sent)
}

func (c *gateConn) Recv() (wire.Msg, error) { return nil, transport.ErrClosed }
func (c *gateConn) release()                { c.once.Do(func() { close(c.open) }) }
func (c *gateConn) Close() error            { c.release(); return nil }
func (c *gateConn) Label() string           { return "gate" }

// Radio changes the writer has not yet sent collapse into one
// notification carrying the scene's newest set, sent ahead of every
// packet pushed after the first change; a packet popped before the
// changes leaves before it. The changes take no queue slot, count in no
// depth and charge no drop. The node registers with no radios, so no
// initial notification leads the record.
func TestRadioChangesCollapseAheadOfLaterData(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		srv := newDispatchBench(t, 2, shards)
		defer srv.Close()
		const id, changes = 5, 7
		if err := srv.cfg.Scene.AddNode(id, geom.V(0, 0), nil); err != nil {
			t.Fatal(err)
		}
		conn := newGateConn()
		sess, err := srv.register(conn, &wire.Hello{Ver: wire.Version, ProposedID: id})
		if err != nil {
			t.Fatal(err)
		}
		push := func(seq uint32) {
			if !sess.q.push([]outMsg{{data: wire.AcquireData(wire.Packet{Seq: seq})}}) {
				t.Fatalf("push %d rejected", seq)
			}
		}
		push(1)
		await(t, conn.entered, "the writer to hold packet 1 at the gate")
		push(2)
		push(3)
		for i := 1; i <= changes; i++ {
			srv.cfg.Scene.SetRadios(id, oneRadio(radio.ChannelID(i), 100))
		}
		push(4)
		push(5)
		if d := sess.q.depth(); d != 4 {
			t.Errorf("depth %d with 4 packets queued behind the one at the gate and %d radio changes pending, want 4", d, changes)
		}
		conn.release()

		var got []wire.Msg
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if got = conn.record(); len(got) == 7 && sess.q.depth() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("client got %d messages, want 7 (HelloAck, one notification, 5 packets)", len(got))
			}
		}
		var seqs []uint32
		note := -1
		for i, m := range got[1:] {
			switch m := m.(type) {
			case *wire.Data:
				seqs = append(seqs, m.Pkt.Seq)
			case *wire.Event:
				if note >= 0 {
					t.Fatalf("second notification at %d: changes did not collapse", i)
				}
				note = len(seqs)
				if want := oneRadio(changes, 100); !slices.Equal(m.Radios, want) {
					t.Errorf("notification carries %v, want the newest set %v", m.Radios, want)
				}
			default:
				t.Fatalf("unexpected %T", m)
			}
		}
		if !slices.Equal(seqs, []uint32{1, 2, 3, 4, 5}) {
			t.Errorf("packets left as %v, want 1..5 in order", seqs)
		}
		if note < 1 || note > 3 {
			t.Errorf("notification after %d packets, want after packet 1 and before packet 4", note)
		}
		if drops := srv.mQueueDrops.Load(); drops != 0 {
			t.Errorf("QueueDrops = %d, want 0", drops)
		}
	})
}

// A radio change racing a registration can delay the client's view but
// never leave it stale: with SetRadios flipping every node's set while
// clients dial in, each client reaches its node's final set once the
// flipping stops.
func TestRegistrationRacingRadioChangesEndsCurrent(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		r := newRig(t, func(c *ServerConfig) { c.Shards = shards })
		const nodes = 64
		sets := [2][]radio.Radio{oneRadio(1, 100), oneRadio(2, 150)}
		for id := radio.NodeID(1); id <= nodes; id++ {
			r.scene.AddNode(id, geom.V(float64(id)*10, 0), sets[0])
		}
		stop, flipped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(flipped)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.scene.SetRadios(radio.NodeID(1+i%nodes), sets[i/nodes%2])
			}
		}()
		clients := make([]*Client, 0, nodes)
		for id := radio.NodeID(1); id <= nodes; id++ {
			c, err := Dial(ClientConfig{ID: id, Dial: r.lis.Dialer(), LocalClock: r.clk})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients = append(clients, c)
		}
		close(stop)
		<-flipped
		deadline := time.Now().Add(5 * time.Second)
		for i, c := range clients {
			n, _ := r.scene.Node(radio.NodeID(i + 1))
			for !slices.Equal(c.Radios(), n.Radios) {
				if time.Now().After(deadline) {
					t.Fatalf("client %d ended on %v, the scene holds %v", i+1, c.Radios(), n.Radios)
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
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
	popped := make(chan uint32, bursts*maxBurst)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var batch []outMsg
		for {
			var ok bool
			if batch, _, ok = q.popBatch(batch, maxFlushBatch); !ok {
				return
			}
			for _, m := range batch {
				popped <- m.data.Pkt.Seq
				wire.ReleaseData(m.data)
			}
		}
	}()
	defer func() { q.close(); <-writerDone }()

	pushed := uint32(0)
	var run []outMsg
	for b := 0; b < bursts; b++ {
		// A burst is single pushes or, every other burst, one run.
		for n := 1 + rng.Intn(maxBurst); n > 0; n-- {
			pushed++
			run = append(run, outMsg{data: wire.AcquireData(wire.Packet{Seq: pushed})})
			if b%2 == 0 || n == 1 {
				if !q.push(run) {
					t.Fatalf("push ending at %d rejected", pushed)
				}
				run = run[:0]
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

// A run longer than the free room must not be dropped against a healthy
// writer that parked before it arrived: push wakes the writer and yields
// before it resorts to drop-oldest, as single pushes did. On one P the
// yield runs the woken writer, which drains the queue, so a run of twice
// the bound reaches it whole with no drop.
func TestSendQueueRunWakesParkedWriterBeforeDropping(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const limit = 4
	q := newSendQueue(limit, nil, nil)
	popped := make(chan uint32, 4*limit)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var batch []outMsg
		for {
			var ok bool
			if batch, _, ok = q.popBatch(batch, maxFlushBatch); !ok {
				return
			}
			for _, m := range batch {
				popped <- m.data.Pkt.Seq
				wire.ReleaseData(m.data)
			}
		}
	}()
	defer func() { q.close(); <-writerDone }()

	for round := 0; round < 3; round++ {
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			q.mu.Lock()
			parked := q.parked
			q.mu.Unlock()
			if parked {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the writer never parked", round)
			}
		}
		run := make([]outMsg, 2*limit)
		for i := range run {
			run[i] = outMsg{data: wire.AcquireData(wire.Packet{Seq: uint32(round*len(run) + i + 1)})}
		}
		if !q.push(run) {
			t.Fatalf("round %d: run rejected by an open queue", round)
		}
		for i := range run {
			want := uint32(round*len(run) + i + 1)
			select {
			case got := <-popped:
				if got != want {
					t.Fatalf("round %d: popped seq %d, want %d (drops %d)", round, got, want, q.drops.Load())
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: popped %d of %d entries (drops %d)", round, i, len(run), q.drops.Load())
			}
		}
		if d := q.drops.Load(); d != 0 {
			t.Fatalf("round %d: %d drops against a parked healthy writer, want 0", round, d)
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
