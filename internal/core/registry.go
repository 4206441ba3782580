package core

// Session lifecycle: the Hello/HelloAck handshake, the per-session
// reader loop, and registration into the owning shard's slice of the
// session registry.
//
// Lock ordering (the only place two locks nest): Server.mu is acquired
// BEFORE shard.mu, never the other way around. Server.mu orders
// registration against Close (the closed flag and the writer
// WaitGroup); the shard lock guards only that shard's session map.
// Everything that aggregates across shards — Stats, SessionStats, the
// poem_clients gauge, Quiesce — takes one shard lock at a time and
// never holds two together, so a scrape can never convoy every shard
// at once and the ordering above is trivially deadlock-free.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/linkmodel"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/wire"
)

// session is one connected emulation client. All traffic toward the
// client funnels through q, drained by a single writer goroutine
// (sessionWriter), so deliveries and scene notifications leave in
// order and a stalled client blocks only its own writer.
type session struct {
	id   radio.NodeID
	conn transport.Conn
	// dice is the link-model die: ingest keys it per (packet, receiver)
	// before each verdict and rng draws from it (linkmodel.Dice). Only
	// the session's own reader goroutine touches either.
	dice linkmodel.Dice
	rng  *rand.Rand

	q        *sendQueue    // bounded outbound queue, FIFO
	stop     chan struct{} // closed when the session ends
	stopOnce sync.Once

	// writerLive is set before the writer goroutine starts and cleared
	// when it exits; reaped records that the session left the shard map
	// while it was set. Both are guarded by the owning shard's mu (see
	// shard.settling).
	writerLive bool
	reaped     bool

	// push is ingest's scratch for listing each packet's deliveries into
	// the shard schedules (pushLocal), reused across packets so the
	// steady-state forwarding path performs no per-packet allocation.
	// Only the session's own reader goroutine touches it.
	push pushScratch
	// wmsgs is the writer's scratch for assembling one flush batch into
	// wire messages (writeBatch). Only the session's writer goroutine
	// touches it.
	wmsgs []wire.Msg

	received  atomic.Uint64 // packets this client sent us
	forwarded atomic.Uint64 // packets we delivered to this client

	// peerIdx is the federation routing scratch: one owning-peer index
	// per target of a packet's delivery list (cluster.routeRemote). Same
	// reader-goroutine confinement as push; unused on unclustered
	// servers.
	peerIdx []int32
}

// shutdown ends the session's writer. Safe to call more than once.
func (sess *session) shutdown() {
	sess.stopOnce.Do(func() { close(sess.stop) })
	sess.q.close()
}

// handle runs one inbound connection: a client session from Hello to
// registration, or — when the first message is a trunk handshake on a
// federated server — a peer trunk for its whole lifetime. A registered
// session's receive loop (serve) runs on a goroutine of its own: the
// handshake's deepest call (pipeConn.Send down into the runtime's lock
// profiler) doubles the stack of the goroutine that makes it, and a
// steady-state server allocates nothing, so no collection would ever
// shrink that stack back for the session's lifetime. handle runs under
// s.wg (Serve's Add), so the Add for serve cannot race Close's Wait.
func (s *Server) handle(conn transport.Conn) {
	first, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	if th, ok := first.(*wire.TrunkHello); ok {
		if cl := s.cluster; cl != nil {
			cl.serveTrunk(conn, th)
		} else {
			conn.Send(&wire.Bye{Reason: "core: not a federated server"})
		}
		conn.Close()
		return
	}
	sess, err := s.register(conn, first)
	if err != nil {
		conn.Send(&wire.Bye{Reason: err.Error()})
		conn.Close()
		return
	}
	s.wg.Add(1)
	go s.serve(sess)
}

// serve is a registered session's receive loop, from the HelloAck to
// the client's disconnect: clock-sync replies and packet ingest. When
// the client goes it ends the session's writer, releases the VMN slot
// and closes the connection.
func (s *Server) serve(sess *session) {
	conn := sess.conn
	defer func() {
		sess.shutdown()
		s.shardOf(sess.id).reap(sess)
		conn.Close()
		s.wg.Done()
	}()
	for {
		m, err := conn.Recv()
		if err != nil {
			return // EOF or broken pipe: the client is gone
		}
		switch msg := m.(type) {
		case *wire.SyncReq:
			// Figure 5 steps 2–3: stamp receipt, reply with send time.
			ts2 := s.cfg.Clock.Now()
			conn.Send(&wire.SyncReply{TC1: msg.TC1, TS2: ts2, TS3: s.cfg.Clock.Now()})
		case *wire.Data:
			s.ingest(sess, msg.Pkt)
			// Drop the reader's reference: ingest retained one per
			// scheduled delivery, so the packet's pooled buffer now lives
			// exactly as long as its slowest delivery (wire.ReleaseData is
			// a no-op for unpooled reads).
			wire.ReleaseData(msg)
		case *wire.Bye:
			return
		default:
			// Unknown-but-decodable messages are ignored; forward
			// compatibility for newer clients.
		}
	}
}

// register performs the Hello/HelloAck handshake and binds the session
// to a VMN on its owning shard. m is the connection's first message,
// already received by handle.
func (s *Server) register(conn transport.Conn, m wire.Msg) (*session, error) {
	hello, ok := m.(*wire.Hello)
	if !ok {
		wire.ReleaseMsg(m) // a pooled Data before Hello still owns a buffer
		return nil, fmt.Errorf("core: expected Hello, got %v", m.Type())
	}
	if hello.Ver != wire.Version {
		return nil, fmt.Errorf("core: protocol version %d unsupported", hello.Ver)
	}
	id := hello.ProposedID
	if id == radio.Broadcast {
		return nil, errors.New("core: client must propose a concrete VMN id")
	}
	if cl := s.cluster; cl != nil {
		// Federation ownership check: a client belongs to exactly one
		// peer. The rejection quotes the owner so DialCluster (or an
		// operator reading the Bye) can follow the redirect.
		if owner := PeerIndex(id, cl.n); owner != cl.self {
			return nil, fmt.Errorf("core: VMN %v belongs to peer %d (%s)", id, owner, cl.peers[owner].Addr)
		}
	}
	if !s.cfg.Scene.HasNode(id) {
		if !s.cfg.AutoCreateNodes {
			return nil, fmt.Errorf("core: unknown VMN %v", id)
		}
		if err := s.cfg.Scene.AddNode(id, geomOrigin, nil); err != nil {
			return nil, err
		}
	}
	sess := &session{
		id:   id,
		conn: conn,
		q:    newSendQueue(s.cfg.SendQueueDepth, s.mQueueDrops, s.mAbandoned),
		stop: make(chan struct{}),
	}
	sess.rng = rand.New(&sess.dice)
	// Timestamp policy drops into the flight recorder: around an
	// incident, which sessions were shedding (and when) is exactly what
	// the breach dump is for.
	rec, shardIdx := s.fid.Recorder(), int32(ShardIndex(id, len(s.shards)))
	sess.q.onDrop = func() {
		rec.Record(fidelity.EvQueueDrop, int(shardIdx), int64(s.cfg.Clock.Now()), int64(id), 0)
	}
	// Insertion nests the shard lock inside Server.mu (the one permitted
	// nesting, see the ordering note above): the closed check and the
	// insert must be one atomic step against Close, or a session could
	// register after Close collected the shard maps and never be shut
	// down.
	sh := s.shardOf(id)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("core: server closed")
	}
	sh.mu.Lock()
	if _, dup := sh.sessions[id]; dup {
		sh.mu.Unlock()
		s.mu.Unlock()
		return nil, fmt.Errorf("core: VMN %v already connected", id)
	}
	sh.sessions[id] = sess
	sh.mu.Unlock()
	s.mu.Unlock()
	if err := conn.Send(&wire.HelloAck{Assigned: id, ServerNow: s.cfg.Clock.Now()}); err != nil {
		// The slot is released only if it is still ours: the client may
		// already have given up and reconnected, and that fresh session
		// must not be evicted by our stale cleanup.
		sh.reap(sess)
		return nil, err
	}
	// The writer starts only after the HelloAck is on the wire — the
	// client's Dial expects it as the first reply, before any queued
	// event. wg.Add must not race Close's wg.Wait; both are ordered by
	// s.mu and the closed flag (Close, once it holds the lock with
	// closed set, has already collected this session for conn.Close).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sess.shutdown()
		return nil, errors.New("core: server closed")
	}
	s.wg.Add(1)
	sh.mu.Lock()
	sess.writerLive = true
	sh.mu.Unlock()
	go s.sessionWriter(sess)
	s.mu.Unlock()
	// Tell the client its current radio set, through the queue so a
	// concurrent live change cannot overtake it. The scene is read
	// *after* the session is visible to the event subscription: any
	// change this read misses is already queued behind, or emitted
	// after, what we enqueue here, so the client always ends current.
	if n, ok := s.cfg.Scene.Node(id); ok && len(n.Radios) > 0 {
		sess.q.push(outMsg{kind: outRadios, radios: append([]radio.Radio(nil), n.Radios...)})
	}
	return sess, nil
}
