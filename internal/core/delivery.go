package core

// Delivery: §3.2 steps 5–6. Each shard's scanner fires due items into
// the addressee's bounded send queue (deliver); one dedicated writer
// goroutine per session drains that queue and performs the socket
// writes (sessionWriter/writeOut).

import (
	"runtime"
	"time"

	"repro/internal/obs/fidelity"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/wire"
)

// deliver is §3.2 step 6: at the scheduled time the packet is handed
// to the addressee's outbound queue. It runs on this shard's scanner
// goroutine and never blocks — the session's dedicated writer performs
// the socket write, so the scanner cannot be stalled by a slow client
// and the goroutine count stays O(connected clients + shards) rather
// than O(in-flight packets). Because the scanner fires items in due
// order and the queue is FIFO, deliveries to a client leave in
// schedule order; ingest routes every item for this destination to
// this one shard, so no other scanner can interleave.
//
// There is deliberately no server-closed check here: Close shuts the
// sessions down before stopping the shard scanners, and a delivery
// into a closed (or missing) session accounts itself abandoned — the
// closed sendQueue rejects the push and settles the buffer and the
// abandoned counter itself. Keeping the front's mutex off this path is
// what lets N scanners run without sharing a lock.
func (sh *shard) deliver(it sched.Item) {
	s := sh.srv
	if h := s.deliverHook.Load(); h != nil {
		(*h)(it)
	}
	sess := sh.lookup(it.To)
	if sess == nil {
		it.Pkt.Buf.Free() // this delivery's buffer reference dies with it
		s.mAbandoned.Inc()
		return // the client left between scheduling and departure
	}
	if sess.q.full() {
		// Distinguish "the writer has not been scheduled yet" (a burst
		// outran it — common on few cores) from "the client is wedged"
		// (its writer is parked in conn.Send and not runnable). Yielding
		// lets a healthy writer drain before we resort to dropping;
		// against a wedged one the queue is still full afterwards and
		// drop-oldest engages as intended.
		runtime.Gosched()
	}
	// A sampled packet (the hash ingest used): leave the receiver's
	// enqueue event on the flight recorder, time the enqueue stage and
	// record how far past its due time the departure fired.
	sampled := s.sampled(&it.Pkt)
	var t0 time.Time
	if sampled {
		nowEmu := s.cfg.Clock.Now()
		s.fid.Recorder().Record(fidelity.EvPktEnqueue, sh.idx, int64(nowEmu),
			fidelity.PacketID(uint32(it.Pkt.Src), it.Pkt.Seq), int64(it.To))
		t0 = time.Now()
		// The scanner can fire an item marginally before Due (scaled-clock
		// rounding in vclock.System.Wait); lag is defined as how *late* a
		// departure fired, so clamp at zero rather than feeding a negative
		// duration into the histogram.
		lag := time.Duration(nowEmu - it.Due)
		if lag < 0 {
			lag = 0
		}
		s.hDeliverLag.Observe(lag)
	}
	sess.q.push(outMsg{kind: outData, pkt: it.Pkt})
	if sampled {
		s.hEnqueue.Observe(time.Since(t0))
	}
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
	// does not escape, and 64 × 96 B of frame made every session's writer
	// copy its stack up at the first pop and keep it for life, though most
	// sessions of a large scene never flush more than a handful.
	var batch []outMsg
	for {
		var ok bool
		// Popped entries are "in flight" until their counters are settled
		// — forwarded on success, abandoned on a failed send — so a drain
		// check never observes the gap between pop and accounting.
		batch, ok = sess.q.popBatch(sess.stop, batch, maxFlushBatch)
		if !ok {
			return // session over; the queue accounted anything left
		}
		err := s.writeBatch(sess, batch)
		sess.q.done(len(batch))
		if err != nil {
			return
		}
	}
}

// sendAll ships msgs on conn — one vectored write when the connection
// batches — and returns how many reached the wire. Pooled messages are
// consumed on every path (the Conn contract); the unsent tail after a
// per-message error is released here so both transports present the
// same all-consumed guarantee to the accounting below.
func sendAll(conn transport.Conn, msgs []wire.Msg) (int, error) {
	if bs, ok := conn.(transport.BatchSender); ok && len(msgs) > 1 {
		return bs.SendBatch(msgs)
	}
	for i, m := range msgs {
		if err := conn.Send(m); err != nil {
			for _, rest := range msgs[i+1:] {
				wire.ReleaseMsg(rest)
			}
			return i, err
		}
	}
	return len(msgs), nil
}

// writeBatch ships a popped batch to the session's client and settles
// each entry's accounting: forwarded for entries that reached the wire,
// abandoned for data entries behind a send error (the session is dying —
// the caller exits the writer).
func (s *Server) writeBatch(sess *session, batch []outMsg) error {
	var t0 time.Time
	traced := false
	for i := range batch {
		if batch[i].kind == outData && s.sampled(&batch[i].pkt) {
			traced = true
			break
		}
	}
	if traced {
		t0 = time.Now()
	}
	msgs := sess.wmsgs[:0]
	for i := range batch {
		m := &batch[i]
		switch m.kind {
		case outRadios:
			msgs = append(msgs, &wire.Event{Kind: wire.EventRadios, Radios: m.radios})
		case outData:
			// The queue's buffer reference rides the pooled wrapper from
			// here on; Send consumes it whether or not the write succeeds.
			msgs = append(msgs, wire.AcquireData(m.pkt))
		}
	}
	sent, err := sendAll(sess.conn, msgs)
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
	for i := range batch {
		m := &batch[i]
		if m.kind != outData {
			continue
		}
		if i >= sent {
			// Died between pop and wire: the transport already released
			// the buffer, the ledger still needs the loss recorded.
			s.mAbandoned.Inc()
			continue
		}
		if traced && s.sampled(&m.pkt) {
			// Final stage: the packet is on the wire to this receiver.
			s.fid.Recorder().Record(fidelity.EvPktSend, shard, sentAt,
				fidelity.PacketID(uint32(m.pkt.Src), m.pkt.Seq), int64(sess.id))
		}
		s.mForwarded.Inc()
		sess.forwarded.Add(1)
		if s.cfg.Store != nil {
			s.cfg.Store.AddPacket(record.Packet{
				Kind: record.PacketOut, At: s.cfg.Clock.Now(), Stamp: m.pkt.Stamp,
				Src: m.pkt.Src, Dst: m.pkt.Dst, Relay: sess.id, Channel: m.pkt.Channel,
				Flow: m.pkt.Flow, Seq: m.pkt.Seq, Size: uint32(m.pkt.Size()),
			})
		}
	}
	return err
}
