package core

// Session lifecycle: the Hello/HelloAck handshake, the per-session
// reader loop, and registration into the owning shard's slice of the
// session registry.
//
// Lock ordering: scene listener (the scene's mutex) → Server.mu →
// shard.mu → sendQueue.mu, each taken only after the ones before it,
// never the other way round. Server.mu orders registration and writer
// starts against Close (the closed flag and the writer WaitGroup); the
// shard lock guards only that shard's session map, and registration's
// insert is the one place it nests inside Server.mu. A writer starts
// from a push or a radio change (startWriter, which takes Server.mu
// alone), and a radio change arrives from the scene's listener with the
// scene mutex held, hence the first link; the queue calls startWriter
// after releasing its own mutex, and nothing that holds Server.mu, a
// shard lock or a queue lock calls into the scene. Everything that
// aggregates across shards — Stats, SessionStats, the poem_clients
// gauge — takes one shard lock at a time and never holds two together,
// so a scrape can never convoy every shard at once; Quiesce takes none.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/linkmodel"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/wire"
)

// session is one connected emulation client. All traffic toward the
// client after registration funnels through q, drained by a single
// writer goroutine (sessionWriter) that starts with the first packet or
// radio change, so deliveries leave in schedule order, a radio change
// reaches the client before any delivery fired after it, and a stalled
// client blocks only its own writer.
type session struct {
	id   radio.NodeID
	conn transport.Conn
	srv  *Server
	// dice is the link-model die: ingest keys it per (packet, receiver)
	// before each verdict and rng draws from it (linkmodel.Dice); rng is
	// made at the session's first packet. Only the session's own reader
	// goroutine touches either.
	dice linkmodel.Dice
	rng  *rand.Rand

	q *sendQueue // bounded outbound queue, FIFO; closed when the session ends

	// staged holds this session's deliveries of the batch its shard's
	// scanner is firing, pushed into q as one run when the batch ends
	// (deliver). Only that scanner goroutine touches it.
	staged []outMsg

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
		sess.q.close()
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

// register performs the Hello/HelloAck handshake, binds the session to
// a VMN on its owning shard and sends the client its radio set. m is the
// connection's first message, already received by handle. It starts no
// writer: the session's queue starts one at its first packet or radio
// change (startWriter).
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
		srv:  s,
		q:    newSendQueue(s.cfg.SendQueueDepth, s.mQueueDrops, s.mAbandoned),
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
		s.dropRegistration(sh, sess)
		return nil, err
	}
	// Tell the client its radio set, if it has one, before the queue may
	// start a writer: the client's Dial expects the HelloAck as the first
	// reply, and this send on the handshake's goroutine is the only one
	// until then. The session is already visible to the scene
	// subscription, so a change this read misses raises the radios flag,
	// and the writer that flag starts reads the set again when it sends:
	// the client can only end on a newer set than the one read here.
	if n, _ := s.cfg.Scene.Node(id); len(n.Radios) > 0 {
		if err := conn.Send(&wire.Event{Kind: wire.EventRadios, Radios: n.Radios}); err != nil {
			s.dropRegistration(sh, sess)
			return nil, err
		}
	}
	sess.q.open(sess)
	return sess, nil
}

// dropRegistration undoes a registration whose handshake failed. The
// slot is released only if it is still ours: the client may already
// have given up and reconnected, and that fresh session must not be
// evicted by our stale cleanup. Closing the queue settles whatever a
// delivery pushed since the session became visible.
func (s *Server) dropRegistration(sh *shard, sess *session) {
	sh.reap(sess)
	sess.q.close()
}

// startWriter launches sess's writer; the session's queue calls it at
// its first push or radio change after register opened it. wg.Add must
// not race Close's wg.Wait; both are ordered by s.mu and the closed
// flag. A start that finds closed set launches nothing: Close has
// collected every registered session and closes its queue, which
// settles whatever it holds.
func (s *Server) startWriter(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.wg.Add(1)
	go s.sessionWriter(sess)
}
