package core

// Server lifecycle and cross-shard fan-out/fan-in: Start, Serve, Close,
// Quiesce, the stats aggregators, and the deliver hook. Every operation
// here that reads across shards visits them one lock at a time (see the
// ordering note in registry.go) — nothing in this file ever holds two
// shard locks together.

import (
	"errors"
	"sort"
	"time"

	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Start launches every shard's scanner and the mobility ticker. Serve
// calls it implicitly; call it directly when driving sessions by hand
// in tests.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ticker != nil || s.closed {
		return
	}
	for _, sh := range s.shards {
		sh.scanner.Start()
	}
	s.ticker = vclock.Every(s.cfg.Clock, s.cfg.TickStep, s.cfg.Scene.Tick)
}

// Serve accepts connections until the listener closes. It always
// returns a non-nil error (ErrClosed-like on orderly shutdown).
func (s *Server) Serve(l transport.Listener) error {
	s.Start()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return errors.New("core: server closed")
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops every shard's scanner, the ticker and every session.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ticker := s.ticker
	s.mu.Unlock()
	// Collect the sessions shard by shard, one lock at a time. No
	// registration can slip past this sweep: register inserts only under
	// Server.mu with closed still false, so any insert either
	// happened-before closed was set above (and is collected here) or
	// observes closed and aborts.
	var sessions []*session
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			sessions = append(sessions, sess)
		}
		sh.mu.Unlock()
	}
	// Ordering: cut the connections first (unblocks session readers and
	// any writer mid-Send), let every handler and writer goroutine
	// drain, and only then stop the scanners and ticker — a scanner
	// dispatch into a closing session is harmless (its queue rejects
	// pushes once closed), but stopping the scanners before the writers
	// exit would abandon in-flight sends.
	for _, sess := range sessions {
		sess.shutdown()
		sess.conn.Close()
	}
	// Federation: stop the outbound machinery (replication, heartbeats,
	// trunks), then cut inbound trunk connections — their handlers run
	// under s.wg just like client sessions, so they must unblock before
	// the Wait below.
	if cl := s.cluster; cl != nil {
		cl.close()
		cl.closeInbound()
	}
	s.wg.Wait()
	// A nil ticker means Start never ran: the scanner goroutines were
	// never launched, and Scanner.Stop would block forever waiting for
	// them to exit.
	if ticker != nil {
		for _, sh := range s.shards {
			sh.scanner.Stop()
		}
		ticker.Stop()
	}
	// Settle whatever the emulation never got to send: every item still
	// in a schedule carries a pooled-buffer reference, and those
	// deliveries died with the server — account them abandoned so the
	// conservation ledger closes and the leak check reads zero. Runs whether or not the scanners ever started.
	for _, sh := range s.shards {
		sh.scanner.Drain(func(it sched.Item) {
			it.Pkt.Buf.Free()
			s.mAbandoned.Inc()
		})
	}
}

// entered is poem_schedule_entries_total: the deliveries listed into
// every shard's schedule, summed over the shards' own counters one shard
// at a time, as a push counts them.
func (s *Server) entered() uint64 {
	n := uint64(0)
	for _, sh := range s.shards {
		n += sh.entered.Load()
	}
	return n
}

// Stats returns a snapshot of the server counters. Clients and
// Scheduled aggregate across shards one shard at a time, so a stats
// scrape never freezes the whole registry.
func (s *Server) Stats() ServerStats {
	clients, scheduled := 0, 0
	for _, sh := range s.shards {
		clients += sh.clients()
		scheduled += sh.scanner.Pending()
	}
	return ServerStats{
		Received:     s.mReceived.Load(),
		Forwarded:    s.mForwarded.Load(),
		Dropped:      s.mDropped.Load(),
		NoRoute:      s.mNoRoute.Load(),
		QueueDrops:   s.mQueueDrops.Load(),
		StampClamped: s.mStampClamped.Load(),
		Entered:      s.entered(),
		Abandoned:    s.mAbandoned.Load(),
		Clients:      clients,
		Scheduled:    scheduled,
		Health:       s.fid.State().String(),
	}
}

// ShardStat is one shard's slice of the pipeline: the figures its
// per-shard obs instruments export, as one typed snapshot.
type ShardStat struct {
	Shard      int
	Clients    int    // sessions registered on this shard
	Scheduled  int    // this shard's schedule depth
	Dispatched uint64 // deliveries fired by this shard's scanner
	Entered    uint64 // deliveries listed into this shard's schedule
	QueueDepth int    // summed send-queue depth of this shard's sessions

	// Scanner loop accounting (see sched.ScannerStats): how many batch
	// fires and clock-wait wakeups the shard's scanner performed, how
	// many wakeups found nothing due, and how pushes interacted with the
	// sleeping scanner (kick delivered vs elided because the scanner was
	// already due no later than the pushed item).
	FireBatches    uint64
	Wakeups        uint64
	SpuriousWakes  uint64
	KicksDelivered uint64
	KicksElided    uint64
	// FireLocks and PushLocks count schedule-lock acquisitions on the
	// fire and push sides; (FireLocks+PushLocks)/Dispatched is the
	// lock-cycles-per-delivery figure the batch scheduler optimizes.
	FireLocks uint64
	PushLocks uint64

	// Real-time fidelity (internal/obs/fidelity): how many fired
	// deliveries missed the rt-tolerance, the miss fraction, batch-fire
	// lag quantiles and the worst lag ever seen, the EWMA drift, and
	// the shard's health state name.
	DeadlineMisses uint64
	MissRate       float64
	LagP50         time.Duration
	LagP99         time.Duration
	LagWatermark   time.Duration
	Drift          time.Duration
	Health         string
}

// ShardStats snapshots every shard's pipeline counters, in shard order.
func (s *Server) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		st := sh.scanner.Stats()
		fs := sh.fid.Snapshot()
		out[i] = ShardStat{
			Shard:          sh.idx,
			Clients:        sh.clients(),
			Scheduled:      sh.scanner.Pending(),
			Dispatched:     st.Dispatched,
			Entered:        sh.entered.Load(),
			QueueDepth:     sh.queueDepth(),
			FireBatches:    st.Batches,
			Wakeups:        st.Wakeups,
			SpuriousWakes:  st.SpuriousWakes,
			KicksDelivered: st.KicksDelivered,
			KicksElided:    st.KicksElided,
			FireLocks:      st.FireLocks,
			PushLocks:      st.PushLocks,
			DeadlineMisses: fs.Misses,
			MissRate:       fs.MissRate,
			LagP50:         fs.LagP50,
			LagP99:         fs.LagP99,
			LagWatermark:   fs.Watermark,
			Drift:          fs.Drift,
			Health:         fs.State,
		}
	}
	return out
}

// Shards returns how many independent pipeline shards the server runs.
func (s *Server) Shards() int { return len(s.shards) }

// SetDeliverHook installs (or, with nil, removes) a callback observing
// every schedule departure in fire order, on the firing shard's scanner
// goroutine. This is the one fan-out point shared by all shards: each
// scanner reads the same atomic pointer, so a single hook observes the
// interleaved fire order of every shard — and per destination that
// projection is still exactly one scanner's ordered output. Test-only:
// the chaos harness derives its per-destination FIFO oracle from it.
// The hook must return quickly — it runs inside scanner dispatch, ahead
// of every queued delivery.
func (s *Server) SetDeliverHook(fn func(sched.Item)) {
	if fn == nil {
		s.deliverHook.Store(nil)
		return
	}
	s.deliverHook.Store(&fn)
}

// Quiesce blocks until the forwarding pipeline has drained — no items
// in any shard's schedule (including one mid-dispatch) and no entries
// in any session's send queue (including one mid-send, and including
// the last batch of a session that has already disconnected) — and
// reports whether that state was reached within timeout. It does not pause
// ingest: callers quiesce after their traffic sources have stopped. The
// fan-in is a fixpoint poll, one shard at a time: a single pass that
// sees every shard empty can still race a cross-shard push, but only
// from an ingest still in flight — which the caller has excluded — so
// the all-empty observation is stable. The chaos harness checks
// invariants only at quiesced points, where the conservation ledger
// must balance exactly.
func (s *Server) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		drained := true
		for _, sh := range s.shards {
			if sh.scanner.Pending() != 0 {
				drained = false
				break
			}
		}
		if drained {
			for _, sh := range s.shards {
				if !sh.queuesDrained() {
					drained = false
					break
				}
			}
		}
		if drained {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Now returns the server emulation clock reading.
func (s *Server) Now() vclock.Time { return s.cfg.Clock.Now() }

// SessionStat is one connected client's traffic counters.
type SessionStat struct {
	ID        radio.NodeID
	Received  uint64 // packets the client sent to the server
	Forwarded uint64 // packets the server delivered to the client
	// QueueDrops counts deliveries to this client discarded by the
	// slow-client policy; QueueDepth is its send queue's depth right
	// now. A persistently deep queue marks a client that cannot keep up
	// with its offered load.
	QueueDrops uint64
	QueueDepth int
}

// SessionStats snapshots per-client counters, sorted by VMN id. The
// snapshot is per-shard (one lock at a time), so it is consistent
// within a shard but not across shards — same as any counter snapshot
// of a live pipeline.
func (s *Server) SessionStats() []SessionStat {
	var out []SessionStat
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, sess := range sh.sessions {
			out = append(out, SessionStat{
				ID:         sess.id,
				Received:   sess.received.Load(),
				Forwarded:  sess.forwarded.Load(),
				QueueDrops: sess.q.drops.Load(),
				QueueDepth: sess.q.depth(),
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
