package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// payloadHeader is what every benchmark packet starts with: the
// sender's clock reading immediately before the send call, then the
// packet's sequence number within its flow.
const payloadHeader = 16

func putHeader(b []byte, sentAt int64, seq uint32) {
	binary.LittleEndian.PutUint64(b, uint64(sentAt))
	binary.LittleEndian.PutUint64(b[8:], uint64(seq))
}

// flowWindow is a closed loop's in-flight bound: packet seq may leave
// once every current receiver of the flow has heard seq-size. Bounding
// the lag of the slowest receiver — not of one chosen receiver — is
// what keeps a saturating broadcast inside every session's send queue:
// the server's slow-client policy would otherwise discard the oldest
// queued packet of whichever neighbour's writer the Go scheduler
// starved, and the workload would fail by design. A sender that has
// waited TokenWait with no progress has lost a packet: the window is
// forced forward by one, the loss is counted as a failure, and the loop
// goes on instead of hanging.
type flowWindow struct {
	size    uint32
	members []member
	refresh func() []*atomic.Uint32 // nil: fixed membership
	low     uint32                  // lowest seq every member has heard (cached; only grows)
	floor   uint32                  // forced forward by reclaims

	reclaimed uint64 // read after the sender has exited
}

// member is one receiver of the flow: the highest seq it has heard, and
// the seq at which it joined (a node that walks into range has heard
// nothing older, and must not stall the window).
type member struct {
	heard *atomic.Uint32
	join  uint32
}

const windowPoll = 100 * time.Microsecond

func newFlowWindow(size int, heard []*atomic.Uint32, refresh func() []*atomic.Uint32) *flowWindow {
	fw := &flowWindow{size: uint32(size), refresh: refresh}
	fw.setMembers(heard, 0)
	return fw
}

func (fw *flowWindow) setMembers(heard []*atomic.Uint32, seq uint32) {
	next := make([]member, 0, len(heard))
	for _, h := range heard {
		m := member{heard: h, join: seq}
		for _, old := range fw.members {
			if old.heard == h {
				m.join = old.join
			}
		}
		next = append(next, m)
	}
	fw.members = next
}

func (fw *flowWindow) recompute(seq uint32) {
	low := seq
	for _, m := range fw.members {
		if h := max(m.heard.Load(), m.join); h < low {
			low = h
		}
	}
	fw.low = max(low, fw.floor, fw.low)
}

// acquire blocks until packet seq fits the window; false means stop is
// closed. It polls rather than being woken per arrival: a parked sender
// woken by every returning packet would switch goroutines once per
// packet, and the poll lets a burst drain between looks.
func (fw *flowWindow) acquire(seq uint32, wait time.Duration, stop <-chan struct{}) bool {
	if seq-fw.low <= fw.size {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	began, refreshed := time.Now(), time.Now()
	for {
		fw.recompute(seq)
		if seq-fw.low <= fw.size {
			return true
		}
		select {
		case <-stop:
			return false
		default:
		}
		time.Sleep(windowPoll)
		if fw.refresh != nil && time.Since(refreshed) > 5*time.Millisecond {
			fw.setMembers(fw.refresh(), seq) // a receiver may have left the neighbourhood
			refreshed = time.Now()
		}
		if time.Since(began) >= wait {
			fw.floor = fw.low + 1
			fw.reclaimed++
			began = time.Now()
		}
	}
}

// flowOrder checks one flow's arrivals at one receiver: no duplicates,
// and non-decreasing due-time order. The server fires a destination's
// deliveries by due time, where due = max(stamp + link latency, the
// server clock at ingest); both terms grow with send order except the
// transmission time, so a packet sent later may arrive first only if its
// nominal due time (stamp + link latency) is strictly earlier — a small
// packet overtaking a large one. Within one payload size nominal due
// times follow send order, so it is enough to remember, per size, the
// latest-sent packet heard: O(sizes) per arrival, exact, constant memory.
type flowOrder struct {
	classes []sizeClass
}

type sizeClass struct {
	size int
	seq  uint32 // highest seq heard with this payload size (0: none yet)
	due  int64  // its nominal due time
}

func newFlowOrder(sizes []int) *flowOrder {
	o := &flowOrder{}
	for _, s := range sizes {
		o.classes = append(o.classes, sizeClass{size: s})
	}
	return o
}

// admit records an arrival (seq ≥ 1) and reports whether it kept the
// order; an unknown payload size is a violation too.
func (o *flowOrder) admit(seq uint32, size int, due int64) bool {
	ok, own := true, -1
	for i := range o.classes {
		c := &o.classes[i]
		if c.size == size {
			own = i
			if c.seq == seq {
				ok = false // heard twice
			}
		}
		if c.seq > seq && c.due >= due {
			ok = false // overtaken by a packet sent later and due no earlier
		}
	}
	if own < 0 {
		return false
	}
	if c := &o.classes[own]; seq > c.seq {
		c.seq, c.due = seq, due
	}
	return ok
}

// span is one sampled packet's trace record; each field is written by
// the one goroutine that observes it.
type span struct {
	seq                                       atomic.Uint32
	sendStart, sendEnd, stamp, due, fire, arr atomic.Int64
}

const (
	spanEvery = 64      // one packet in 64 per flow carries spans
	spanSlots = 1 << 16 // per flow; a slot is reused after 4 M packets
)

func spanSlot(seq uint32) int { return int(seq/spanEvery) & (spanSlots - 1) }

// meter is the receive side of the benchmark: counts, lateness
// histograms per window, order checks, window progress, and — in the
// traced pass — the scanner-fire observations and spans.
type meter struct {
	w      workload
	in     *inputs
	clk    *vclock.System
	traced bool

	win      atomic.Int32 // current lateness window, -1 outside the measured phase
	received striped
	lateness [latRing]hist // window i fills lateness[i%latRing]
	early    atomic.Uint64
	samples  atomic.Uint64
	disorder atomic.Uint64 // duplicate or out-of-due-order arrivals
	corrupt  atomic.Uint64 // payload did not match what was sent

	recvs []receiver

	// Closed lateness windows; only the goroutine that runs the pass
	// touches these.
	winP99  []float64 // each non-empty window's own p99, ns
	all     histSnap  // every window merged: the whole-run distribution
	scratch histSnap

	// traced pass
	fireLag      hist
	fireToClient hist
	spans        [numFlows][]span
}

// receiver is one client's callback state, touched only by that
// client's receive goroutine.
type receiver struct {
	m     *meter
	id    radio.NodeID
	heard [numFlows]atomic.Uint32 // highest seq heard: the flow window reads it
	spans [numFlows]bool          // this client's arrivals close the flow's spans
	order [numFlows]*flowOrder
	k     uint32
}

const earlyTolerance = 200 * time.Microsecond

// latRing is how many lateness histograms rotate: one filling, the
// previous one settling until it is closed a window later, and slack.
// The windows are short and many (see timing.LatWindow), and a histogram
// each would make the benchmark's own memory show in rss_mb.
const latRing = 4

func newMeter(w workload, in *inputs, clk *vclock.System, traced bool) *meter {
	m := &meter{w: w, in: in, clk: clk, traced: traced}
	m.win.Store(-1)
	m.recvs = make([]receiver, len(in.Nodes))
	for i := range m.recvs {
		m.recvs[i].m, m.recvs[i].id = m, radio.NodeID(i+1)
	}
	for f := range in.Flows {
		m.recvs[in.Flows[f].Dsts[0]-1].spans[f] = true
		if traced {
			m.spans[f] = make([]span, spanSlots)
		}
	}
	return m
}

// closeWindow folds lateness window i into the results and empties its
// histogram for reuse. The pass closes a window one window after it
// ended, when no receiver can still be adding to it.
func (m *meter) closeWindow(i int) {
	m.lateness[i%latRing].drainInto(&m.scratch)
	if m.scratch.total == 0 {
		return
	}
	m.winP99 = append(m.winP99, m.scratch.quantile(0.99))
	m.all.add(&m.scratch)
}

// latenessP99 is the benchmark's lateness figure: the median over the
// windows of each window's own p99, so a host stall spoils the windows
// it falls in and not the figure. Empty windows do not count.
func (m *meter) latenessP99() float64 { return median(m.winP99) }

func (m *meter) onPacketFor(id radio.NodeID) func(wire.Packet) { return m.recvs[id-1].onPacket }

func (r *receiver) onPacket(p wire.Packet) {
	m := r.m
	m.received.add(uint32(r.id))
	f := int(p.Flow) - 1
	if f < 0 || f >= numFlows || len(p.Payload) < payloadHeader ||
		uint32(binary.LittleEndian.Uint64(p.Payload[8:])) != p.Seq ||
		len(p.Payload) != m.in.Flows[f].Sizes[p.Seq%sizeSeqLen] {
		m.corrupt.Add(1)
		return
	}
	link := m.w.linkNs(len(p.Payload))
	o := r.order[f]
	if o == nil {
		o = newFlowOrder(m.w.Sizes)
		r.order[f] = o
	}
	if !o.admit(p.Seq, len(p.Payload), int64(p.Stamp)+link) {
		m.disorder.Add(1)
	}
	if p.Seq > r.heard[f].Load() {
		r.heard[f].Store(p.Seq)
	}
	span := m.traced && r.spans[f] && p.Seq%spanEvery == 0
	if r.k++; r.k < m.w.LatEvery && !span {
		return
	}
	now := int64(m.clk.Now())
	if r.k >= m.w.LatEvery {
		r.k = 0
		late := now - int64(binary.LittleEndian.Uint64(p.Payload)) - link
		if late < -int64(earlyTolerance) {
			m.early.Add(1)
		}
		m.samples.Add(1)
		if w := m.win.Load(); w >= 0 {
			m.lateness[w%latRing].observe(late)
		}
	}
	if span {
		if s := &m.spans[f][spanSlot(p.Seq)]; s.seq.Load() == p.Seq {
			s.arr.Store(now)
			if fire := s.fire.Load(); fire != 0 {
				m.fireToClient.observe(now - fire)
			}
		}
	}
}

// deliverHook observes schedule departures on the scanner goroutines
// (traced pass only): fire lag on one packet in 64, and the fire instant
// of the span-carrying deliveries.
func (m *meter) deliverHook(it sched.Item) {
	if it.Pkt.Seq%spanEvery != 0 {
		return
	}
	now := int64(m.clk.Now())
	m.fireLag.observe(now - int64(it.Due))
	f := int(it.Pkt.Flow) - 1
	if f < 0 || f >= numFlows || it.To != m.in.Flows[f].Dsts[0] {
		return
	}
	if s := &m.spans[f][spanSlot(it.Pkt.Seq)]; s.seq.Load() == it.Pkt.Seq {
		s.stamp.Store(int64(it.Pkt.Stamp))
		s.due.Store(int64(it.Due))
		s.fire.Store(now)
	}
}
