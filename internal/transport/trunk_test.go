package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mbuf"
	"repro/internal/wire"
)

// flakyDialer dials through an InprocListener but can be switched off
// to simulate a partition: dials fail while down, and Cut closes every
// connection it previously handed out.
type flakyDialer struct {
	lis *InprocListener

	mu    sync.Mutex
	down  bool
	conns []Conn
	dials int
}

func (d *flakyDialer) dial() (Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dials++
	if d.down {
		return nil, errors.New("flaky: partitioned")
	}
	c, err := d.lis.Dial()
	if err != nil {
		return nil, err
	}
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *flakyDialer) cut() {
	d.mu.Lock()
	d.down = true
	conns := d.conns
	d.conns = nil
	d.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (d *flakyDialer) heal() {
	d.mu.Lock()
	d.down = false
	d.mu.Unlock()
}

// acceptLoop consumes server-side trunk connections, counting received
// batch entries.
func acceptLoop(t *testing.T, lis *InprocListener, got *atomic.Uint64, hellos *atomic.Uint64) {
	t.Helper()
	for {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		go func(c Conn) {
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch v := m.(type) {
				case wire.TrunkHello, *wire.TrunkHello:
					hellos.Add(1)
				case *wire.TrunkBatch:
					got.Add(uint64(len(v.Entries)))
				}
				wire.ReleaseMsg(m)
			}
		}(c)
	}
}

// TestTrunkReconnect: a trunk survives its peer cutting every
// connection — sends during the partition drop fast (no blocking), and
// after the dialer heals the next send past the backoff re-handshakes.
func TestTrunkReconnect(t *testing.T) {
	lis := NewInprocListener()
	defer lis.Close()
	var got, hellos atomic.Uint64
	go acceptLoop(t, lis, &got, &hellos)

	d := &flakyDialer{lis: lis}
	tr := NewTrunk(TrunkConfig{
		Dial:       d.dial,
		Hello:      wire.TrunkHello{Ver: wire.Version, From: 0, Cluster: "t"},
		MinBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Name:       "peer1",
	})
	defer tr.Close()

	if err := tr.Send(entries(nil, 0, 3, 1)); err != nil {
		t.Fatalf("first send: %v", err)
	}
	waitFor(t, func() bool { return got.Load() == 3 }, "initial batch delivered")
	if hellos.Load() != 1 {
		t.Fatalf("hellos = %d, want 1", hellos.Load())
	}

	d.cut()
	// The cut conn fails the next send; subsequent sends during backoff
	// must return immediately with ErrTrunkDown rather than blocking.
	deadline := time.Now().Add(2 * time.Second)
	for tr.Connected() && time.Now().Before(deadline) {
		tr.Send(entries(nil, 0, 1, 1))
		time.Sleep(100 * time.Microsecond)
	}
	if tr.Connected() {
		t.Fatal("trunk still connected after cut")
	}
	start := time.Now()
	err := tr.Send(entries(nil, 0, 1, 1))
	if err == nil {
		t.Fatal("send during partition succeeded")
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("send during partition blocked %v", elapsed)
	}

	d.heal()
	// Retry until the backoff window passes and the trunk re-dials.
	waitFor(t, func() bool {
		tr.Send(entries(nil, 0, 1, 1))
		return tr.Connected()
	}, "trunk reconnected")
	waitFor(t, func() bool { return hellos.Load() == 2 }, "handshake re-sent")

	st := tr.Stats()
	if st.Dropped == 0 {
		t.Error("no drops recorded during partition")
	}
	if st.Reconnects < 2 {
		t.Errorf("reconnects = %d, want >= 2", st.Reconnects)
	}
}

// TestTrunkBackoffDefers: while backing off, Send must not dial at all.
func TestTrunkBackoffDefers(t *testing.T) {
	d := &flakyDialer{down: true}
	tr := NewTrunk(TrunkConfig{
		Dial:       d.dial,
		MinBackoff: time.Hour, // park the retry far away
		MaxBackoff: time.Hour,
	})
	defer tr.Close()

	if err := tr.Send(entries(nil, 0, 1, 1)); err == nil {
		t.Fatal("send with dead dialer succeeded")
	}
	for i := 0; i < 10; i++ {
		if err := tr.Send(entries(nil, 0, 1, 1)); !errors.Is(err, ErrTrunkDown) {
			t.Fatalf("send %d: got %v, want ErrTrunkDown", i, err)
		}
	}
	d.mu.Lock()
	dials := d.dials
	d.mu.Unlock()
	if dials != 1 {
		t.Fatalf("dialed %d times during backoff, want 1", dials)
	}
	if st := tr.Stats(); st.Dropped != 11 || st.DroppedBatch != 11 {
		t.Fatalf("dropped = %d/%d entries, want 11/11", st.Dropped, st.DroppedBatch)
	}
}

// TestTrunkClosedSendConsumes: Send after Close still consumes the
// message (no pooled-wrapper leak) and reports ErrClosed.
func TestTrunkClosedSendConsumes(t *testing.T) {
	lis := NewInprocListener()
	defer lis.Close()
	tr := NewTrunk(TrunkConfig{Dial: lis.Dial})
	tr.Close()
	if err := tr.Send(entries(nil, 0, 2, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestTrunkDeadConnectionIsDownNotClosed: a write on a connection the
// peer has closed leaves the trunk down and backing off, not closed, on
// both Send paths — so it must report ErrTrunkDown, never the
// connection's ErrClosed. Scene replication retries a trunk that is
// down and stops on one that is closed: chaos seed 3 at three peers
// (go test ./internal/chaos -run TestChaosFederationThreePeer
// -chaos.seed=3) had a partition's cut connection meet a scene mutation
// before a heartbeat, and the follower never applied another.
func TestTrunkDeadConnectionIsDownNotClosed(t *testing.T) {
	lis := NewInprocListener()
	defer lis.Close()
	var got, hellos atomic.Uint64
	go acceptLoop(t, lis, &got, &hellos)
	d := &flakyDialer{lis: lis}
	tr := NewTrunk(TrunkConfig{Dial: d.dial, MinBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	defer tr.Close()
	for _, m := range []func() wire.Msg{
		func() wire.Msg { return &wire.TrunkScene{Seq: 1} },
		func() wire.Msg { return entries(nil, 0, 2, 1) },
	} {
		d.heal()
		waitFor(t, func() bool { return tr.Send(&wire.TrunkStatus{}) == nil }, "trunk connected")
		d.cut()
		if err := tr.Send(m()); !errors.Is(err, ErrTrunkDown) || errors.Is(err, ErrClosed) {
			t.Fatalf("send %T on a dead connection: got %v, want ErrTrunkDown", m(), err)
		}
	}
}

// TestTrunkFailedDialIsDownNotClosed: a dial refused by the peer's closed
// listener (ErrClosed) leaves the trunk down, not closed. Scene
// replication stops only on a closed trunk, so a follower whose server
// was stopped and started again would never have heard from the
// coordinator again.
func TestTrunkFailedDialIsDownNotClosed(t *testing.T) {
	lis := NewInprocListener()
	lis.Close()
	tr := NewTrunk(TrunkConfig{Dial: lis.Dial, MinBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	defer tr.Close()
	for _, m := range []wire.Msg{&wire.TrunkScene{Seq: 1}, entries(nil, 0, 2, 1)} {
		time.Sleep(2 * time.Millisecond) // past the backoff: the send dials
		if err := tr.Send(m); !errors.Is(err, ErrTrunkDown) || errors.Is(err, ErrClosed) {
			t.Fatalf("send %T to a closed listener: got %v, want ErrTrunkDown", m, err)
		}
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// scriptedTrunk is a trunk over a tcpConn whose writes the test steps
// (scriptConn), with dials counted.
func scriptedTrunk(minBackoff time.Duration) (*Trunk, *scriptConn, *atomic.Int64) {
	sc := newScriptConn()
	c := newTCPConn(sc, nil, true)
	var dials atomic.Int64
	tr := NewTrunk(TrunkConfig{
		Dial:       func() (Conn, error) { dials.Add(1); return c, nil },
		MinBackoff: minBackoff,
		MaxBackoff: minBackoff,
	})
	return tr, sc, &dials
}

// entries returns a pooled batch of n entries with sequence numbers
// from, each payload in its own buffer from pool (nil: unpooled).
func entries(pool *mbuf.Pool, from, n int, payload int) *wire.TrunkBatch {
	tb := wire.AcquireTrunkBatch()
	for i := 0; i < n; i++ {
		pkt := wire.Packet{Src: 2, Dst: 1, Channel: 1, Seq: uint32(from + i), Payload: make([]byte, payload)}
		if pool != nil {
			pkt.Buf = mbuf.AllocCopy(pool, pkt.Payload)
			pkt.Payload = pkt.Buf.Bytes()
		}
		tb.Entries = append(tb.Entries, wire.TrunkEntry{Due: 10, To: 1, Pkt: pkt})
	}
	return tb
}

// batchBytes is the encoded size of n entries of the given payload.
func batchBytes(n, payload int) int { return n * (trunkEntryFixed + payload) }

// checkLedger asserts the trunk's three-term identity: every entry it
// accepted is written, dropped or pending.
func checkLedger(t *testing.T, tr *Trunk, accepted int, step string) TrunkStats {
	t.Helper()
	st := tr.Stats()
	if st.SentEntries+st.DroppedBatch+st.Pending != uint64(accepted) {
		t.Fatalf("%s: sent %d + dropped %d + pending %d != accepted %d",
			step, st.SentEntries, st.DroppedBatch, st.Pending, accepted)
	}
	return st
}

// decodeStream decodes a byte stream of frames.
func decodeStream(t *testing.T, stream []byte) []wire.Msg {
	t.Helper()
	var out []wire.Msg
	for r := bytes.NewReader(stream); r.Len() > 0; {
		m, err := wire.ReadMsg(r)
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, m)
	}
	return out
}

// entrySeqs lists the entry sequence numbers of a stream's TrunkBatch
// frames, in order.
func entrySeqs(ms []wire.Msg) []uint32 {
	var out []uint32
	for _, m := range ms {
		if tb, ok := m.(*wire.TrunkBatch); ok {
			for _, e := range tb.Entries {
				out = append(out, e.Pkt.Seq)
			}
		}
	}
	return out
}

// The point of the change, as a count: while one write is in the kernel,
// every further deferred batch only appends, and all of them leave as
// one frame in the next write.
func TestTrunkDeferredBurstLeavesInOneFrame(t *testing.T) {
	tr, sc, _ := scriptedTrunk(time.Hour)
	defer tr.Close()
	const n, payload = 50, 64
	accepted := 1
	sent := make(chan error, 1)
	go func() { sent <- tr.SendDeferred(entries(nil, 0, 1, payload)) }()
	first := <-sc.calls // held inside Write
	if !strings.Contains(first.stack, "(*Trunk).flusher") {
		t.Fatalf("the first deferred write ran on the sender's goroutine:\n%s", first.stack)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	checkLedger(t, tr, accepted, "first batch")
	for i := 1; i <= n; i++ {
		if err := tr.SendDeferred(entries(nil, i, 1, payload)); err != nil {
			t.Fatal(err)
		}
		accepted++
		if st := checkLedger(t, tr, accepted, fmt.Sprintf("batch %d", i)); st.Pending != uint64(i+1) {
			t.Fatalf("batch %d: %d pending behind the held write, want %d", i, st.Pending, i+1)
		}
	}
	sc.acks <- nil
	second := sc.step(nil)
	ms := decodeStream(t, second.b)
	if len(ms) != 1 {
		t.Fatalf("second write carries %d frames, want 1", len(ms))
	}
	if got := len(ms[0].(*wire.TrunkBatch).Entries); got != n {
		t.Fatalf("second frame carries %d entries, want %d", got, n)
	}
	tr.flushers.Wait()
	select {
	case w := <-sc.calls:
		t.Fatalf("a third write of %d bytes", len(w.b))
	default:
	}
	if want := trunkFrameFixed + batchBytes(n, payload); len(second.b) != want {
		t.Errorf("frame of %d bytes, the trunk's size estimate says %d", len(second.b), want)
	}
	got := entrySeqs(append(decodeStream(t, first.b), ms...))
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("entry %d carries seq %d", i, s)
		}
	}
	st := checkLedger(t, tr, accepted, "after the burst")
	if st.SentMsgs != 2 || st.SentEntries != n+1 || st.Pending != 0 {
		t.Errorf("after the burst: %d frames, %d entries written, %d pending", st.SentMsgs, st.SentEntries, st.Pending)
	}
}

// A synchronous Send (a TrunkScene, a heartbeat) writes the entries
// deferred before it first, in its own call if no flusher took them.
func TestTrunkSendFlushesDeferredFirst(t *testing.T) {
	tr, sc, _ := scriptedTrunk(time.Hour)
	defer tr.Close()
	// Mark a flusher as started but not yet run: the deferred entries
	// stay pending, and only the Send below can write them.
	tr.mu.Lock()
	tr.flushing = true
	tr.mu.Unlock()
	accepted := 0
	for i := 0; i < 3; i++ {
		if err := tr.SendDeferred(entries(nil, i, 1, 8)); err != nil {
			t.Fatal(err)
		}
		accepted++
		checkLedger(t, tr, accepted, fmt.Sprintf("batch %d", i))
	}
	returned := make(chan error, 1)
	go func() { returned <- tr.Send(&wire.TrunkScene{Seq: 9}) }()
	var stream []byte
	for sent := false; !sent; {
		select {
		case w := <-sc.calls:
			checkLedger(t, tr, accepted, fmt.Sprintf("write of %d bytes", len(w.b)))
			stream = append(stream, w.b...)
			sc.acks <- nil
		case err := <-returned:
			if err != nil {
				t.Fatal(err)
			}
			sent = true
		}
	}
	ms := decodeStream(t, stream)
	if len(ms) != 2 {
		t.Fatalf("%d frames written, want the pending batch and the scene", len(ms))
	}
	if _, ok := ms[1].(*wire.TrunkScene); !ok {
		t.Fatalf("the scene is not the last frame: %T", ms[1])
	}
	if got := entrySeqs(ms[:1]); fmt.Sprint(got) != "[0 1 2]" {
		t.Errorf("entries before the scene: %v, want [0 1 2]", got)
	}
	if st := checkLedger(t, tr, accepted, "after the scene"); st.SentEntries != 3 || st.SentMsgs != 2 {
		t.Errorf("after the scene: %d entries in %d frames", st.SentEntries, st.SentMsgs)
	}
	tr.mu.Lock()
	tr.flushing = false
	tr.mu.Unlock()
}

// Against a peer that takes nothing, a deferring sender stops at the
// bound: the pending entries never pass it by more than one batch, and
// everything arrives in order once the peer reads. At the bound the
// write happens inside the sender's own call; that is what blocks it.
func TestTrunkDeferredBoundedAndBlocking(t *testing.T) {
	tr, sc, _ := scriptedTrunk(time.Hour)
	const per, payload = 16, 64
	batch := batchBytes(per, payload)
	total := 4 * trunkPendFlushAt / batch // four bounds' worth of batches
	var accepted atomic.Int64
	done := make(chan struct{})
	defer func() { tr.Close(); <-done }()
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if err := tr.SendDeferred(entries(nil, i*per, per, payload)); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			accepted.Add(per)
		}
	}()
	pendBytes := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.pendBytes
	}
	// The peer does not take the first write. If it is the sender's own
	// (the flusher had not run yet), the sender is parked in it. If it is
	// the flusher's, the sender fills the pending batch up to the bound
	// and parks in its own flush behind the held write.
	w := <-sc.calls
	onFlusher := strings.Contains(w.stack, "(*Trunk).flusher")
	for parked := !onFlusher || len(w.b) >= trunkPendFlushAt; !parked; runtime.Gosched() {
		select {
		case <-done:
			t.Fatal("the sender finished against a stalled peer")
		default:
			parked = pendBytes() >= trunkPendFlushAt
		}
	}
	if n := pendBytes(); n >= trunkPendFlushAt+batch {
		t.Fatalf("%d bytes pending behind the write, bound %d + one batch of %d", n, trunkPendFlushAt, batch)
	}
	// What the trunk holds is the write in progress (checked against the
	// same bound below) plus what is pending behind it.
	inWrite := len(entrySeqs(decodeStream(t, w.b)))
	if st, behind := tr.Stats(), pendBytes()/(trunkEntryFixed+payload); st.Pending != uint64(inWrite+behind) {
		t.Fatalf("%d entries pending, %d in the write and %d behind it", st.Pending, inWrite, behind)
	}
	select {
	case <-done:
		t.Fatal("the sender returned at the bound")
	default:
	}
	var ms []wire.Msg
	for {
		if len(w.b) >= trunkFrameFixed+trunkPendFlushAt+batch {
			t.Fatalf("one write of %d bytes, bound %d + one batch of %d", len(w.b), trunkPendFlushAt, batch)
		}
		ms = append(ms, decodeStream(t, w.b)...)
		sc.acks <- nil
		if len(entrySeqs(ms)) == total*per {
			break
		}
		w = <-sc.calls
	}
	<-done
	for i, s := range entrySeqs(ms) {
		if s != uint32(i) {
			t.Fatalf("entry %d carries seq %d", i, s)
		}
	}
	tr.flushers.Wait()
	checkLedger(t, tr, int(accepted.Load()), "drained")

	// One batch over the bound: no flusher, the caller writes.
	sent := make(chan error, 1)
	go func() { sent <- tr.SendDeferred(entries(nil, 0, 1, trunkPendFlushAt)) }()
	w = <-sc.calls
	if !strings.Contains(w.stack, "(*Trunk).SendDeferred") || strings.Contains(w.stack, "(*Trunk).flusher") {
		t.Errorf("write at the bound not inside SendDeferred:\n%s", w.stack)
	}
	sc.acks <- nil
	if err := <-sent; err != nil {
		t.Error(err)
	}
	checkLedger(t, tr, int(accepted.Load())+1, "over the bound")
}

// A deferred write that fails drops what it carried and what queued
// behind it — counted where it fails, buffers freed — closes the
// connection and arms the backoff, so the next deferred batch is
// dropped at once, without a dial.
func TestTrunkDeferredWriteFailureCountsDropped(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	tr, sc, dials := scriptedTrunk(time.Hour)
	defer tr.Close()
	accepted := 0
	send := func(from, n int) error {
		err := tr.SendDeferred(entries(pool, from, n, 32))
		accepted += n
		checkLedger(t, tr, accepted, fmt.Sprintf("batch at %d", from))
		return err
	}
	if err := send(0, 3); err != nil {
		t.Fatal(err)
	}
	<-sc.calls // the flusher's write is in the kernel
	if err := send(3, 2); err != nil {
		t.Fatal(err)
	}
	sc.acks <- errors.New("connection reset by peer")
	tr.flushers.Wait()
	st := checkLedger(t, tr, accepted, "after the failed write")
	if st.Up || st.SentEntries != 0 || st.DroppedBatch != 5 || st.Pending != 0 {
		t.Fatalf("after the failed write: %+v", st)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d pooled buffers live after the drop", live)
	}
	if err := send(5, 4); !errors.Is(err, ErrTrunkDown) {
		t.Fatalf("deferred send inside the backoff: %v, want ErrTrunkDown", err)
	}
	if st := checkLedger(t, tr, accepted, "inside the backoff"); st.DroppedBatch != 9 {
		t.Fatalf("dropped %d entries, want 9", st.DroppedBatch)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials, want 1: the backoff must not redial", n)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d pooled buffers live", live)
	}
}

// Close fails the write in progress, waits for the flusher, and drops
// everything pending — counted, buffers freed.
func TestTrunkCloseFreesPending(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	tr, sc, _ := scriptedTrunk(time.Hour)
	accepted := 0
	for i := 0; i < 5; i++ {
		if err := tr.SendDeferred(entries(pool, 2*i, 2, 32)); err != nil {
			t.Fatal(err)
		}
		accepted += 2
		checkLedger(t, tr, accepted, fmt.Sprintf("batch %d", i))
		if i == 0 {
			<-sc.calls // hold the flusher inside its write
		}
	}
	tr.Close()
	tr.mu.Lock()
	flushing := tr.flushing
	tr.mu.Unlock()
	if flushing {
		t.Error("Close returned with the flusher alive")
	}
	st := checkLedger(t, tr, accepted, "after Close")
	if st.Pending != 0 || st.DroppedBatch != uint64(accepted) {
		t.Errorf("after Close: %d pending, %d of %d dropped", st.Pending, st.DroppedBatch, accepted)
	}
	if live := pool.Live(); live != 0 {
		t.Errorf("%d pooled buffers live after Close", live)
	}
	if err := tr.SendDeferred(entries(pool, 10, 1, 32)); !errors.Is(err, ErrClosed) {
		t.Errorf("SendDeferred after Close: %v", err)
	}
	checkLedger(t, tr, accepted+1, "send after Close")
	if live := pool.Live(); live != 0 {
		t.Errorf("%d pooled buffers live after a send to a closed trunk", live)
	}
}

// A batch too big for one frame — a 60 KiB broadcast heard by 20
// receivers on the peer, or more entries than a frame may count — is
// split into frames the peer accepts; it must not read as a dead
// connection.
func TestTrunkSplitsOversizedBatch(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	lis, err := ListenTCPWithPool("127.0.0.1:0", pool)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var got atomic.Uint64
	var bad atomic.Value
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					bad.Store(err.Error())
				}
				return
			}
			if tb, ok := m.(*wire.TrunkBatch); ok {
				got.Add(uint64(len(tb.Entries)))
			}
			wire.ReleaseMsg(m)
		}
	}()
	tr := NewTrunk(TrunkConfig{Dial: TCPDialer(lis.Addr()), MinBackoff: time.Hour, MaxBackoff: time.Hour})
	defer tr.Close()
	want := 0
	for _, b := range []struct{ n, payload int }{
		{1, 8},                         // the trunk is up and has sent a batch
		{20, 60 << 10},                 // 1.2 MB: past wire.MaxFrame
		{wire.MaxTrunkEntries + 10, 8}, // past the entry count a frame may carry
		{1, 8},                         // and the trunk still carries traffic
	} {
		if err := tr.Send(entries(nil, want, b.n, b.payload)); err != nil {
			t.Fatalf("%d entries of %d bytes: %v", b.n, b.payload, err)
		}
		want += b.n
		checkLedger(t, tr, want, fmt.Sprintf("%d entries of %d bytes", b.n, b.payload))
	}
	waitFor(t, func() bool { return got.Load() == uint64(want) || bad.Load() != nil }, "every entry delivered")
	if e := bad.Load(); e != nil {
		t.Fatalf("the peer rejected the stream: %v", e)
	}
	if st := tr.Stats(); st.Reconnects != 1 || st.DroppedBatch != 0 || !st.Up {
		t.Fatalf("after the oversized batches: %+v", st)
	}
}

// BenchmarkTrunkBatchSend measures the trunk batch-send path over the
// in-process transport with a draining receiver: steady state must not
// allocate (the wrapper and its entry array are pooled; the pipe
// transfers by reference). Gated by scripts/check_allocs.sh.
func BenchmarkTrunkBatchSend(b *testing.B) {
	lis := NewInprocListener()
	defer lis.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			wire.ReleaseMsg(m)
		}
	}()

	tr := NewTrunk(TrunkConfig{Dial: lis.Dial, Hello: wire.TrunkHello{Ver: wire.Version}})
	defer func() {
		tr.Close()
		<-done
	}()
	payload := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := wire.AcquireTrunkBatch()
		for j := 0; j < 16; j++ {
			tb.Entries = append(tb.Entries, wire.TrunkEntry{
				Due: 100, To: 1,
				Pkt: wire.Packet{Src: 2, Dst: 1, Channel: 1, Seq: uint32(j), Payload: payload},
			})
		}
		if err := tr.Send(tb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrunkBatchEncode measures the TCP-path serialization of a
// 16-entry batch into a reused scratch buffer: zero allocations.
func BenchmarkTrunkBatchEncode(b *testing.B) {
	var tb wire.TrunkBatch
	payload := []byte("0123456789abcdef0123456789abcdef")
	for j := 0; j < 16; j++ {
		tb.Entries = append(tb.Entries, wire.TrunkEntry{
			Due: 100, To: 1,
			Pkt: wire.Packet{Src: 2, Dst: 1, Channel: 1, Seq: uint32(j), Payload: payload},
		})
	}
	scratch := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = wire.AppendFrame(scratch[:0], &tb)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrunkDeferred is the cluster's trunk path: 16-entry
// SendDeferred calls over the in-process transport with a draining
// receiver. Steady state must not allocate — the pending batch and its
// entry array come back through the TrunkBatch pool, and a flusher
// starts from a function value bound once. Gated by
// scripts/check_allocs.sh.
func BenchmarkTrunkDeferred(b *testing.B) {
	lis := NewInprocListener()
	defer lis.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			wire.ReleaseMsg(m)
		}
	}()

	tr := NewTrunk(TrunkConfig{Dial: lis.Dial, Hello: wire.TrunkHello{Ver: wire.Version}})
	defer func() {
		tr.Close()
		<-done
	}()
	payload := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := wire.AcquireTrunkBatch()
		for j := 0; j < 16; j++ {
			tb.Entries = append(tb.Entries, wire.TrunkEntry{
				Due: 100, To: 1,
				Pkt: wire.Packet{Src: 2, Dst: 1, Channel: 1, Seq: uint32(j), Payload: payload},
			})
		}
		if err := tr.SendDeferred(tb); err != nil {
			b.Fatal(err)
		}
	}
	tr.flushers.Wait()
	b.StopTimer()
	st := tr.Stats()
	if st.SentEntries != uint64(16*b.N) {
		b.Fatalf("%d of %d entries written", st.SentEntries, 16*b.N)
	}
	b.ReportMetric(float64(st.SentEntries)/float64(st.SentMsgs), "entries/frame")
}
