package core

// Delivery: §3.2 steps 5–6. Each shard's scanner fires batches of due
// items into the addressees' bounded send queues (fire, deliver); one
// dedicated writer goroutine per session drains that queue and performs
// the socket writes (sessionWriter/writeBatch).

import (
	"time"

	"repro/internal/obs/fidelity"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// fire is this shard's scanner callback, called once per batch of due
// items with the clock reading that popped them. It runs the deadline
// accounting, then delivers the batch. The batch is sorted by (Due,
// seq), so its worst lag is now−batch[0].Due and the missed items are a
// prefix found by binary search — hand-rolled so the whole hand-off
// stays allocation-free (the scanner's zero-alloc fire loop is
// CI-gated).
func (sh *shard) fire(now vclock.Time, batch []sched.Item) {
	s := sh.srv
	n := len(batch)
	s.hFireBatch.Observe(time.Duration(n))
	lag := int64(now - batch[0].Due)
	if lag < 0 {
		lag = 0
	}
	missed := 0
	if tol := vclock.Time(s.fid.Tolerance()); lag > int64(tol) {
		cut := now - tol // the batch prefix with Due < cut missed
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if batch[mid].Due < cut {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		missed = lo
	}
	if sh.fid.Record(int64(now), lag, n, missed) {
		// Window closed: summarize the scanner's sleep/kick machinery
		// into the flight recorder so a dump shows how the loop behaved
		// around an incident.
		st := sh.scanner.Stats()
		s.fid.Recorder().Record(fidelity.EvScannerWindow, sh.idx, int64(now),
			int64(st.KicksElided), int64(st.Wakeups))
	}
	sh.deliver(batch)
}

// deliver is §3.2 step 6: at the scheduled time each packet of a fired
// batch is handed to its addressee's outbound queue. It runs on this
// shard's scanner goroutine and never blocks — the session's dedicated
// writer performs the socket write, so the scanner cannot be stalled by
// a slow client and the goroutine count stays O(connected clients +
// shards) rather than O(in-flight packets). Because the scanner fires
// items in due order and the queue is FIFO, deliveries to a client
// leave in schedule order; ingest routes every item for this
// destination to this one shard, so no other scanner can interleave.
//
// The batch costs one shard read lock, which resolves every receiver
// into the shard's session scratch, and one send-queue lock per
// delivery. A receiver reaped after the lookup is still pushed: its
// closed queue abandons the delivery, as it does for one reaped before.
//
// Each run of items that carry one scheduled packet — a broadcast's
// receivers fire together — is delivered as one message (deliverFan).
//
// There is deliberately no server-closed check here: Close shuts the
// sessions down before stopping the shard scanners, and a delivery
// into a closed (or missing) session accounts itself abandoned — the
// closed sendQueue rejects the push and settles the holder and the
// abandoned counter itself. Keeping the front's mutex off this path is
// what lets N scanners run without sharing a lock.
func (sh *shard) deliver(batch []sched.Item) {
	sessions := sh.fired[:0]
	sh.mu.RLock()
	for i := range batch {
		sessions = append(sessions, sh.sessions[batch[i].To])
	}
	sh.mu.RUnlock()

	hook := sh.srv.deliverHook.Load()
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && oneFan(&batch[i].Pkt, &batch[j].Pkt) {
			j++
		}
		sh.deliverFan(batch[i:j], sessions[i:j], hook)
		i = j
	}
	clear(sessions) // hold no reaped session past the batch
	sh.fired = sessions
}

// deliverFan delivers one run of a fired batch: items that carry the
// same scheduled packet, each holding one reference on its buffer, with
// the receivers' sessions (nil for one that left between scheduling and
// departure). The live receivers share one pooled wire.Data, a holder
// each; the wrapper keeps one buffer reference and the run's others
// drop in one step. Sampling is decided once for the run and rides the
// queue entry to the writer.
func (sh *shard) deliverFan(run []sched.Item, sessions []*session, hook *func(sched.Item)) {
	s := sh.srv
	live := 0
	for _, sess := range sessions {
		if sess != nil {
			live++
		}
	}
	pkt := &run[0].Pkt
	pkt.Buf.Drop(len(run) - 1)
	var d *wire.Data
	if live > 0 {
		d = wire.AcquireShared(*pkt, live)
	} else {
		pkt.Buf.Free()
	}
	// From the last push on, d may be retired by its receivers: only the
	// run's items are read below.
	sampled := s.sampled(pkt)
	for i := range run {
		it := &run[i]
		if hook != nil {
			(*hook)(*it)
		}
		sess := sessions[i]
		if sess == nil {
			s.mAbandoned.Inc() // the client left between scheduling and departure
			continue
		}
		if !sampled {
			sess.q.push(outMsg{kind: outData, data: d})
			continue
		}
		// A sampled packet (the hash ingest used): leave the receiver's
		// enqueue event on the flight recorder, time the enqueue stage and
		// record how far past its due time the departure fired.
		nowEmu := s.cfg.Clock.Now()
		s.fid.Recorder().Record(fidelity.EvPktEnqueue, sh.idx, int64(nowEmu),
			fidelity.PacketID(uint32(it.Pkt.Src), it.Pkt.Seq), int64(it.To))
		t0 := time.Now()
		// Lag is how *late* a departure fired. The scanner popped the
		// item against an earlier read of this clock, so a monotone clock
		// cannot read before Due here; the clamp keeps a clock that steps
		// back from feeding a negative duration into the histogram.
		s.hDeliverLag.Observe(max(time.Duration(nowEmu-it.Due), 0))
		sess.q.push(outMsg{kind: outData, data: d, sampled: true})
		s.hEnqueue.Observe(time.Since(t0))
	}
}

// oneFan reports whether a and b are one scheduled packet: equal in
// every field, with the payload the same bytes in memory (data pointer
// and length), not merely equal ones. Two packets of one trunk frame
// share a buffer but not an offset, and a client may reuse a seq and
// stamp for other bytes; neither may share a wrapper.
func oneFan(a, b *wire.Packet) bool {
	return samePacket(a, b) && a.Dst == b.Dst && a.Channel == b.Channel && a.Flow == b.Flow &&
		a.Buf == b.Buf && len(a.Payload) == len(b.Payload) &&
		(len(a.Payload) == 0 || &a.Payload[0] == &b.Payload[0])
}

// samePacket reports whether a and b carry the same sampling key (src,
// seq, stamp).
func samePacket(a, b *wire.Packet) bool {
	return a.Src == b.Src && a.Seq == b.Seq && a.Stamp == b.Stamp
}

// sampled reports whether p is one of the packets the stage timing and
// lifecycle tracing follow (ServerConfig.ObsSampleEvery).
func (s *Server) sampled(p *wire.Packet) bool {
	return s.sample.Sampled(uint32(p.Src), p.Seq, int64(p.Stamp))
}

// maxFlushBatch bounds how many queue entries the session writer drains
// per flush. 64 keeps worst-case writev iovec counts and head-of-line
// latency bounded while still amortizing the syscall across a burst.
const maxFlushBatch = 64

// sessionWriter is the per-session sending goroutine: it drains the
// session's queue in FIFO order and performs the actual writes. One
// writer per session means a wedged client backpressures only itself;
// everyone else's writers keep draining. The writer pops entries in
// batches and ships each batch as one vectored write when the transport
// supports it — under fan-out the queue refills faster than the kernel
// accepts frames, so a batch is usually waiting by the time Send
// returns, and coalescing it collapses n syscalls into one.
func (s *Server) sessionWriter(sess *session) {
	defer s.wg.Done()
	defer s.shardOf(sess.id).writerExited(sess)
	// The batch starts nil and popBatch grows it on the heap: sized here it
	// does not escape, and 64 entries made every session's writer copy its
	// stack up at the first pop and keep it for life, though most sessions
	// of a large scene never flush more than a handful. The same holds for
	// rows, which only recording or tracing fills.
	var batch []outMsg
	var rows []record.Packet
	for {
		var ok bool
		// Popped entries are "in flight" until their counters are settled
		// — forwarded on success, abandoned on a failed send — so a drain
		// check never observes the gap between pop and accounting.
		batch, ok = sess.q.popBatch(sess.stop, batch, maxFlushBatch)
		if !ok {
			return // session over; the queue accounted anything left
		}
		var err error
		rows, err = s.writeBatch(sess, batch, rows)
		sess.q.done(len(batch))
		if err != nil {
			return
		}
	}
}

// writeBatch ships a popped batch to the session's client and settles
// its accounting in one commit per counter: forwarded for entries that
// reached the wire, abandoned for data entries behind a send error (the
// session is dying — the caller exits the writer). rows is the writer's
// scratch for the packet fields recorded after the send, returned for
// reuse.
func (s *Server) writeBatch(sess *session, batch []outMsg, rows []record.Packet) ([]record.Packet, error) {
	store := s.cfg.Store
	var t0 time.Time
	traced := false
	for i := range batch {
		if batch[i].sampled {
			traced = true
			t0 = time.Now()
			break
		}
	}
	msgs := sess.wmsgs[:0]
	rows = rows[:0]
	for i := range batch {
		m := &batch[i]
		switch m.kind {
		case outRadios:
			msgs = append(msgs, &wire.Event{Kind: wire.EventRadios, Radios: m.radios})
		case outData:
			// The send consumes this entry's holder, after which the
			// wrapper may be retired by the fan's other receivers: what
			// the accounting below records about the packet is read now.
			if m.sampled || store != nil {
				rows = append(rows, packetRecord(record.PacketOut, 0, &m.data.Pkt, sess.id))
			}
			msgs = append(msgs, m.data)
		}
	}
	sent, err := transport.SendAll(sess.conn, msgs)
	for i := range msgs {
		msgs[i] = nil // the transport owns (or has retired) every message
	}
	sess.wmsgs = msgs[:0]
	s.hFlushBatch.Observe(time.Duration(len(batch)))

	// One write sent the whole batch: its sampled entries share the
	// send instant.
	var sentAt int64
	var shard int
	if traced && sent > 0 {
		s.hSend.Observe(time.Since(t0))
		sentAt, shard = int64(s.cfg.Clock.Now()), s.shardOf(sess.id).idx
	}
	var forwarded, abandoned uint64
	r := 0
	for i := range batch {
		m := &batch[i]
		if m.kind != outData {
			continue
		}
		var row *record.Packet
		if m.sampled || store != nil {
			row = &rows[r]
			r++
		}
		if i >= sent {
			// Died between pop and wire: the transport already released
			// the holder, the ledger still needs the loss recorded.
			abandoned++
			continue
		}
		if m.sampled {
			// Final stage: the packet is on the wire to this receiver.
			s.fid.Recorder().Record(fidelity.EvPktSend, shard, sentAt,
				fidelity.PacketID(uint32(row.Src), row.Seq), int64(sess.id))
		}
		forwarded++
		if store != nil {
			row.At = s.cfg.Clock.Now()
			store.AddPacket(*row)
		}
	}
	// The batch's counters commit once, before the caller marks it done
	// (sendQueue.done), so a drain check still never sees a popped entry
	// unaccounted.
	if forwarded > 0 {
		s.mForwarded.Add(forwarded)
		sess.forwarded.Add(forwarded)
	}
	if abandoned > 0 {
		s.mAbandoned.Add(abandoned)
	}
	return rows, err
}
