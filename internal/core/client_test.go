package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// callLog is a client connection that can defer, and records which of
// its two send calls each message came through.
type callLog struct {
	transport.Conn

	mu       sync.Mutex
	sent     []wire.Type // through Send
	deferred []wire.Type // through SendDeferred
	seqs     []uint32    // of every Data, either way
}

func (l *callLog) note(m wire.Msg, calls *[]wire.Type) {
	l.mu.Lock()
	*calls = append(*calls, m.Type())
	if d, ok := m.(*wire.Data); ok {
		l.seqs = append(l.seqs, d.Pkt.Seq)
	}
	l.mu.Unlock()
}

func (l *callLog) Send(m wire.Msg) error {
	l.note(m, &l.sent)
	return l.Conn.Send(m)
}

func (l *callLog) SendDeferred(m wire.Msg) error {
	l.note(m, &l.deferred)
	return l.Conn.Send(m)
}

func (r *rig) loggedClient(id radio.NodeID) (*Client, *callLog) {
	r.t.Helper()
	log := &callLog{}
	c, err := Dial(ClientConfig{ID: id, LocalClock: r.clk, Dial: func() (transport.Conn, error) {
		conn, err := r.lis.Dial()
		log.Conn = conn
		return log, err
	}})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(c.Close)
	return c, log
}

// Only packets — stamped before they travel — may wait for the
// connection's flusher. The handshake, every clock-sync round (it is a
// round-trip measurement) and the closing Bye (which flushes what was
// deferred before it) go through Send, which writes before it returns.
func TestClientDefersPacketsOnly(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	c, log := r.loggedClient(1)
	for i := 0; i < 3; i++ {
		if err := c.SendTo(2, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Resync(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.deferred) != 3 {
		t.Errorf("deferred %v, want the 3 packets", log.deferred)
	}
	for _, typ := range log.deferred {
		if typ != wire.TypeData {
			t.Errorf("%v was deferred", typ)
		}
	}
	count := map[wire.Type]int{}
	for _, typ := range log.sent {
		count[typ]++
	}
	if count[wire.TypeHello] != 1 || count[wire.TypeSyncReq] != 8 || count[wire.TypeBye] != 1 || len(log.sent) != 10 {
		t.Errorf("through Send: %v, want 1 Hello, 2×4 SyncReq, 1 Bye", log.sent)
	}
}

// SendTo numbers packets without a lock; concurrent senders must still
// never share a sequence number.
func TestClientSeqDistinctAcrossGoroutines(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	c, log := r.loggedClient(1)
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := c.SendTo(2, 1, 0, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	log.mu.Lock()
	defer log.mu.Unlock()
	seen := make(map[uint32]bool, len(log.seqs))
	for _, seq := range log.seqs {
		if seen[seq] || seq == 0 || seq > senders*per {
			t.Fatalf("sequence number %d repeated or out of 1..%d", seq, senders*per)
		}
		seen[seq] = true
	}
	if len(seen) != senders*per {
		t.Errorf("%d distinct sequence numbers, want %d", len(seen), senders*per)
	}
}

// Over TCP Send returns before the write; an orderly Close still
// delivers everything sent before it, because Bye flushes through.
func TestClientCloseFlushesDeferredSendsOverTCP(t *testing.T) {
	clk := vclock.NewSystem(50)
	sc := scene.New(radio.NewIndexed(250), clk, 1)
	sc.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Shards: *flagShards})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	defer func() { lis.Close(); srv.Close(); <-done }()

	c, err := Dial(ClientConfig{ID: 1, Dial: transport.TCPDialer(lis.Addr()), LocalClock: clk})
	if err != nil {
		t.Fatal(err)
	}
	const sends = 1000
	for i := 0; i < sends; i++ {
		if err := c.SendTo(2, 1, 0, []byte("flushed by bye")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Received != sends; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server received %d of %d packets sent before Close", srv.Stats().Received, sends)
		}
	}
}

// syncHold is a client connection that interferes with clock-sync
// replies once armed. With hold set it keeps the next SyncReply back
// (holding is closed then) until the client sends its next SyncReq.
// With mute set it swallows every SyncReply and signals sent at each
// SyncReq.
type syncHold struct {
	transport.Conn
	hold, mute atomic.Bool
	holding    chan struct{}
	next       chan struct{}
	release    sync.Once
	sent       chan struct{}

	mu   sync.Mutex
	held *wire.SyncReply
}

func newSyncHold() *syncHold {
	return &syncHold{holding: make(chan struct{}), next: make(chan struct{}), sent: make(chan struct{}, 1)}
}

func (h *syncHold) heldReply() *wire.SyncReply {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held
}

func (h *syncHold) Send(m wire.Msg) error {
	_, req := m.(*wire.SyncReq)
	if req && h.heldReply() != nil { // held by an earlier round: release it
		h.release.Do(func() { close(h.next) })
	}
	err := h.Conn.Send(m)
	if req && h.mute.Load() {
		select {
		case h.sent <- struct{}{}:
		default:
		}
	}
	return err
}

func (h *syncHold) Recv() (wire.Msg, error) {
	for {
		m, err := h.Conn.Recv()
		rep, ok := m.(*wire.SyncReply)
		switch {
		case !ok || err != nil:
			return m, err
		case h.mute.Load():
			continue
		case h.hold.Swap(false):
			h.mu.Lock()
			h.held = rep
			h.mu.Unlock()
			close(h.holding)
			<-h.next
		}
		return m, nil
	}
}

func (r *rig) heldClient(id radio.NodeID, timeout time.Duration) (*Client, *syncHold) {
	r.t.Helper()
	h := newSyncHold()
	skewed := vclock.Offset{Base: r.clk, Shift: -3 * time.Second}
	c, err := Dial(ClientConfig{ID: id, LocalClock: skewed, SyncRounds: 1, SyncTimeout: timeout,
		Dial: func() (transport.Conn, error) {
			conn, err := r.lis.Dial()
			h.Conn = conn
			return h, err
		}})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(c.Close)
	return c, h
}

// A sync reply that arrives after its round timed out answers nothing:
// the client keeps one pending round, keyed by its TC1, and the late
// reply reaches the receive loop while the next round is pending. That
// round installs its own sample; taken for it, the late reply would put
// the offset ≈ 7 s off the local clock's 3 s skew.
func TestLateSyncReplyIsDropped(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	c, h := r.heldClient(1, 200*time.Millisecond)
	h.hold.Store(true)
	if _, err := c.Resync(); err == nil {
		t.Fatal("a round whose reply was held back succeeded")
	}
	select {
	case <-h.holding:
	case <-time.After(5 * time.Second):
		t.Fatal("the round's reply never arrived")
	}
	late := h.heldReply()
	s, err := c.Resync()
	if err != nil {
		t.Fatalf("resync after a late reply: %v", err)
	}
	if s.TC1 == late.TC1 || s.TS2 <= late.TS3 {
		t.Fatalf("the round took the late reply: sample %+v, late %+v", s, *late)
	}
	if off := c.Offset(); off < 2*time.Second || off > 4*time.Second {
		t.Errorf("offset estimate %v after a late reply, want ≈3s", off)
	}
}

// Closing the client aborts a sync round waiting for its reply at once,
// not at the round's timeout.
func TestCloseDuringSyncReturnsPromptly(t *testing.T) {
	r := newRig(t, nil)
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 100))
	c, h := r.heldClient(1, time.Minute)
	h.mute.Store(true)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Resync()
		errc <- err
	}()
	<-h.sent
	start := time.Now()
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("Resync after Close: %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the pending sync round waiting for its timeout")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Resync took %v to see Close", d)
	}
}
