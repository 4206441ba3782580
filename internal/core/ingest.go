package core

// Ingest: §3.2 steps 1–4. Runs on the receiving session's reader
// goroutine; the only cross-session state it touches is the (lock-free)
// scene dispatch snapshot, the destination shards' schedules, and — for
// the SerializeChannels extension — the shared channel airtime map.

import (
	"math/rand"
	"time"

	"repro/internal/linkmodel"
	"repro/internal/obs/fidelity"
	"repro/internal/radio"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// ingest is §3.2 steps 1–4 for one received packet. Each surviving
// target is listed into the schedule of the shard that owns the
// *destination* (shardOf(to)): all deliveries to one client fire from
// one scanner, which is what keeps per-destination FIFO true at every
// shard count.
func (s *Server) ingest(sess *session, pkt wire.Packet) {
	// The received counters commit last, once every schedule entry and
	// record row for this packet exists: "Received == packets the wire
	// delivered" then implies no ingest is still mid-flight, which is
	// what lets a drained pipeline be checked with exact equalities
	// instead of retry heuristics (see Quiesce and internal/chaos).
	defer func() {
		s.mReceived.Inc()
		sess.received.Add(1)
	}()
	now := s.cfg.Clock.Now()
	if pkt.Src != sess.id {
		pkt.Src = sess.id // a VMN cannot spoof another's traffic
	}
	// Parallel stamps are trusted for accuracy (§4.1), not unboundedly:
	// a client clock running ahead of every honest sync error would
	// otherwise list its packets arbitrarily deep into the schedule's
	// future. Late stamps need no clamp — the floor below (floorDues)
	// already keeps them from shipping into the past.
	if maxSkew := s.cfg.MaxStampSkew; maxSkew >= 0 {
		if maxSkew == 0 {
			maxSkew = DefaultMaxStampSkew
		}
		if horizon := now.Add(maxSkew); pkt.Stamp > horizon {
			pkt.Stamp = horizon
			s.mStampClamped.Inc()
		}
	}
	// Sampling gate, on the packet as the schedule will carry it (the
	// clamped stamp), so the later stages — scanner, writer, a remote
	// peer — pick the same packets. Sampled packets pay the time.Now
	// reads, histogram adds and stage events; everything else skips the
	// instrumentation below.
	sampled := s.sampled(&pkt)
	var obsStart time.Time
	var pktID int64
	if sampled {
		pktID = fidelity.PacketID(uint32(pkt.Src), pkt.Seq)
		s.fid.Recorder().Record(fidelity.EvPktIngest, -1, int64(now), pktID, int64(pkt.Stamp))
		obsStart = time.Now()
	}
	if s.cfg.Store != nil {
		s.cfg.Store.AddPacket(packetRecord(record.PacketIn, now, &pkt, 0))
	}
	// Step 2: resolve NT(src, ch) and the channel's link model in one
	// epoch-snapshot read — a single atomic load, no locks, no copies
	// (scene.Dispatch). The row is shared with the snapshot and strictly
	// read-only here.
	rows, model := s.cfg.Scene.Dispatch(pkt.Src, pkt.Channel)
	// Each verdict draws from dice keyed by (Seed, packet, receiver), so
	// it is a pure function of the packet as recorded — the clamped
	// stamp, not the client's — and of who hears it (linkmodel.Dice).
	pktKey := linkmodel.PacketKey(s.cfg.Seed, uint32(pkt.Src), pkt.Seq, int64(pkt.Stamp))
	// Steps 2–3 fused: filter targets, roll the link-model die and write
	// each survivor's due in one pass over the row. The due is the
	// paper's base formula, t_forward = t_receipt + delay + size/bandwidth
	// per receiver, with t_receipt the client's parallel stamp (real-time
	// recording). Under SerializeChannels the size/bandwidth term is left
	// out: the transmission's airtime replaces it (reserveAirtime). The
	// survivors land in the session's reusable scratch buffer.
	if pkt.Dst != radio.Broadcast {
		rows = neighborOf(rows, pkt.Dst) // a unicast is heard by its addressee only
	}
	if sess.rng == nil { // most sessions of a large scene never send
		sess.rng = rand.New(&sess.dice)
	}
	targets := sess.push.targets[:0]
	matched := 0
	var maxTx time.Duration
	for _, nb := range rows {
		matched++
		sess.dice.Key(pktKey, uint32(nb.ID))
		dec := model.Evaluate(nb.Dist, pkt.Size(), sess.rng)
		if dec.Drop {
			s.mDropped.Inc()
			if s.cfg.Store != nil {
				s.cfg.Store.AddPacket(packetRecord(record.PacketDrop, now, &pkt, nb.ID))
			}
			continue
		}
		tx := dec.TxTime
		if s.cfg.SerializeChannels {
			maxTx, tx = max(maxTx, tx), 0
		}
		targets = append(targets, sched.Target{To: nb.ID, Due: pkt.Stamp.Add(dec.Delay + tx)})
	}
	sess.push.targets = targets
	// Resolve stage done: dispatch view read, targets filtered, dice
	// rolled. The histogram gets the wall cost, the stage event the
	// emulation timestamp and how many receivers the link model kept.
	if sampled {
		s.hResolve.Observe(time.Since(obsStart))
		s.fid.Recorder().Record(fidelity.EvPktResolve, -1, int64(s.cfg.Clock.Now()), pktID,
			int64(len(targets))<<32|int64(matched))
	}
	switch {
	case matched == 0:
		s.mNoRoute.Inc()
		if s.cfg.Store != nil {
			s.cfg.Store.AddPacket(packetRecord(record.PacketDrop, now, &pkt, pkt.Dst))
		}
	case len(targets) > 0:
		// Each scheduled delivery owns one reference on the packet's
		// pooled buffer (nil-safe for unpooled ingress); the reader's own
		// reference is released by the session handler once ingest
		// returns, so the buffer lives exactly as long as its slowest
		// delivery.
		pkt.Buf.Retain(len(targets))
		var shift time.Duration
		if s.cfg.SerializeChannels {
			shift = s.reserveAirtime(pkt.Channel, pkt.Stamp, maxTx, now)
		}
		floorDues(targets, shift, now)
		// Step 4: the deliveries to VMNs a remote peer owns leave on the
		// cluster trunks; the rest go into the destination shards'
		// schedules.
		if cl := s.cluster; cl != nil {
			targets = cl.routeRemote(sess, pkt, targets)
		}
		s.pushLocal(&sess.push, pkt, targets)
	}
	if sampled {
		s.hIngest.Observe(time.Since(obsStart))
	}
}

// neighborOf returns the entry of row — ID-sorted, as every dispatch row
// is — for id as a one-element slice, or an empty one when id is not a
// neighbour. The search is spelled out, as the radio table's is.
func neighborOf(row []radio.Neighbor, id radio.NodeID) []radio.Neighbor {
	i, end := 0, len(row)
	for i < end {
		if mid := int(uint(i+end) >> 1); row[mid].ID < id {
			i = mid + 1
		} else {
			end = mid
		}
	}
	if i < len(row) && row[i].ID == id {
		return row[i : i+1]
	}
	return nil
}

// floorDues is the one rule that finishes a packet's due times before
// they enter a schedule, for client ingest and trunk arrival alike: each
// due moves by shift, and a due already past fires now — a delivery
// cannot ship into the past.
func floorDues(targets []sched.Target, shift time.Duration, now vclock.Time) {
	for i := range targets {
		due := targets[i].Due.Add(shift)
		if due < now {
			due = now
		}
		targets[i].Due = due
	}
}

// reserveAirtime is the §7 MAC extension (SerializeChannels): one
// transmission at a time per channel. The transmission occupies the
// medium once, for its slowest receiver's airtime, starting at its stamp
// or when the channel's previous transmission ends, whichever is later;
// every receiver hears it when the airtime ends. It returns how far that
// end lies past the stamp: the shift that takes each receiver's stamp +
// delay to end + delay. The airtime map is deliberately server-global: a
// channel is one shared medium regardless of which shards its listeners
// live on.
func (s *Server) reserveAirtime(ch radio.ChannelID, stamp vclock.Time, airtime time.Duration, now vclock.Time) time.Duration {
	s.chanMu.Lock()
	end := max(stamp, s.chanFree[ch]).Add(airtime)
	s.chanFree[ch] = end
	if len(s.chanFree) > s.chanFreeSweep {
		s.pruneChanFreeLocked(now, ch)
	}
	s.chanMu.Unlock()
	return end.Sub(stamp)
}

// pushScratch is one reader goroutine's reusable scratch for listing
// packets into the shard schedules: targets collects who hears a packet
// and when, shardIdx their shard assignments, and group the slice handed
// to one shard (pushLocal). A session's reader and each inbound trunk
// connection own one, so the steady-state path allocates nothing.
type pushScratch struct {
	targets  []sched.Target
	group    []sched.Target
	shardIdx []int32
}

// pushLocal lists one packet's locally owned deliveries into their
// destination shards: the one path by which a packet enters the
// schedules, for a client packet at ingest and for a trunk arrival
// alike.
//
// Targets that share a shard are gathered so each shard's schedule lock
// is taken — and its scanner kicked — at most once per packet instead of
// once per target (§3.2 step 4 under fan-out: a broadcast that kept k
// survivors costs one lock cycle per distinct destination shard). The
// order within targets is preserved inside every group, so
// per-destination FIFO is exactly what sequential pushes produced. Runs
// on the goroutine that owns sc.
func (s *Server) pushLocal(sc *pushScratch, pkt wire.Packet, targets []sched.Target) {
	n := len(targets)
	switch {
	case n == 0:
		return
	case n == 1 || len(s.shards) == 1:
		s.shardOf(targets[0].To).pushFan(pkt, targets)
	default:
		// Group by destination shard with a mark-consumed sweep: for each
		// unclaimed target, gather every later target on the same shard (in
		// order) and hand the group over in one pushFan. O(n·shards) worst
		// case with n bounded by the scene's neighbor count.
		idxs := sc.shardIdx[:0]
		for i := range targets {
			idxs = append(idxs, int32(ShardIndex(targets[i].To, len(s.shards))))
		}
		sc.shardIdx = idxs
		for i := 0; i < n; i++ {
			sh := idxs[i]
			if sh < 0 {
				continue
			}
			group := append(sc.group[:0], targets[i])
			for j := i + 1; j < n; j++ {
				if idxs[j] == sh {
					group = append(group, targets[j])
					idxs[j] = -1
				}
			}
			sc.group = group
			s.shards[sh].pushFan(pkt, group)
		}
	}
}

// packetRecord is the recording's row for one packet event: kind at
// server time at, with relay the concrete receiver of an Out or Drop
// record (0 for In).
func packetRecord(kind record.PacketKind, at vclock.Time, p *wire.Packet, relay radio.NodeID) record.Packet {
	return record.Packet{
		Kind: kind, At: at, Stamp: p.Stamp,
		Src: p.Src, Dst: p.Dst, Relay: relay, Channel: p.Channel,
		Flow: p.Flow, Seq: p.Seq, Size: uint32(p.Size()),
	}
}

// chanFreeMinSweep is the smallest chanFree size that triggers a prune
// sweep; below it the map is too small to be worth walking.
const chanFreeMinSweep = 64

// pruneChanFreeLocked evicts channel-busy entries whose airtime already
// ended. A scenario that retunes radios across many channels (channel
// hopping, scene churn) otherwise accretes one entry per channel ever
// used, forever: the map only records "busy until", so an entry in the
// past constrains nothing — a packet arriving now starts from its own
// stamp regardless. Runs amortized: only when the map outgrows a
// watermark, which is then reset to twice the surviving size. Callers
// hold chanMu. keep is the channel just updated (its entry is always
// current by construction; skipping it saves the common single-channel
// case from ever sweeping).
func (s *Server) pruneChanFreeLocked(now vclock.Time, keep radio.ChannelID) {
	for ch, free := range s.chanFree {
		if ch != keep && free < now {
			delete(s.chanFree, ch)
		}
	}
	s.chanFreeSweep = 2 * len(s.chanFree)
	if s.chanFreeSweep < chanFreeMinSweep {
		s.chanFreeSweep = chanFreeMinSweep
	}
}
