// Package control is PoEm's operator interface: a line-oriented TCP
// protocol through which the running emulation server's scene is
// inspected and mutated in real time. It is the headless equivalent of
// the paper's GUI — "dragging and dropping VMNs anywhere, double-
// clicking the VMN to activate configuration dialogue-boxes anytime" —
// every command maps onto the same scene.Controller calls.
//
// Protocol: one command per line; the server answers with one or more
// lines terminated by a line containing only "." — errors start with
// "err:". Commands reuse the scenario-script grammar minus the "at <t>"
// prefix (they execute immediately), plus inspection verbs:
//
//	add 1 pos 100,100 radio ch=1 range=200
//	move 2 to 220,300
//	range 1 ch=1 120
//	radios 1 radio ch=2 range=200
//	mobility 2 linear dir=90 speed=10
//	linkmodel ch=1 p0=0.1 p1=0.9 d0=50 r=200
//	remove 3 | pause | resume
//	show             render the scene as ASCII
//	nodes            list node states
//	dump             export the scene as a scenario script
//	stats            server counters
//	quit
package control

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/render"
	"repro/internal/scene"
	"repro/internal/script"
)

// Server exposes a scene (and optionally server counters) for control.
type Server struct {
	scene  *scene.Scene
	emu    *core.Server // may be nil (scene-only control)
	region geom.Rect

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps a scene. emu may be nil; region bounds `show`.
func NewServer(sc *scene.Scene, emu *core.Server, region geom.Rect) *Server {
	if region.W() <= 0 || region.H() <= 0 {
		region = geom.R(0, 0, 1000, 1000)
	}
	return &Server{scene: sc, emu: emu, region: region}
}

// ListenAndServe accepts control connections on addr until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("control: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.Session(conn, conn)
		}()
	}
}

// Addr returns the bound address once listening.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener and waits for sessions.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
}

// Session runs the command loop over any reader/writer pair (exposed
// for tests and for stdin-driven use).
func (s *Server) Session(r io.Reader, w io.Writer) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" {
			fmt.Fprintln(w, "bye")
			fmt.Fprintln(w, ".")
			return
		}
		s.execute(line, w)
		fmt.Fprintln(w, ".")
	}
}

// Execute runs one command and returns its reply (without the
// terminator), for programmatic use.
func (s *Server) Execute(line string) string {
	var b strings.Builder
	s.execute(strings.TrimSpace(line), &b)
	return strings.TrimRight(b.String(), "\n")
}

func (s *Server) execute(line string, w io.Writer) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		fmt.Fprintln(w, "err: empty command")
		return
	}
	switch fields[0] {
	case "show":
		snaps := s.scene.Snapshot()
		marks := make([]render.Mark, len(snaps))
		for i, n := range snaps {
			note := ""
			if n.Mobile {
				note = "(mobile)"
			}
			marks[i] = render.Mark{ID: uint32(n.ID), Pos: n.Pos, Note: note}
		}
		fmt.Fprint(w, render.Frame(marks, s.region, 60, 20))
	case "nodes":
		for _, n := range s.scene.Snapshot() {
			fmt.Fprintf(w, "%v @ %v radios=%v mobile=%v\n", n.ID, n.Pos, n.Radios, n.Mobile)
		}
	case "dump":
		fmt.Fprint(w, script.Export(s.scene, s.region))
	case "stats":
		if s.emu == nil {
			fmt.Fprintln(w, "err: no emulation server attached")
			return
		}
		st := s.emu.Stats()
		fmt.Fprintf(w, "clients=%d received=%d forwarded=%d dropped=%d noroute=%d scheduled=%d queuedrops=%d stampclamped=%d health=%s\n",
			st.Clients, st.Received, st.Forwarded, st.Dropped, st.NoRoute, st.Scheduled,
			st.QueueDrops, st.StampClamped, st.Health)
		// One line per pipeline shard: where the sessions landed, how
		// much schedule work each slice is carrying, and whether that
		// slice is keeping real time.
		for _, sh := range s.emu.ShardStats() {
			fmt.Fprintf(w, "  shard %d clients=%d scheduled=%d dispatched=%d entered=%d queuedepth=%d"+
				" firebatches=%d wakeups=%d spurious=%d kicks=%d elided=%d"+
				" health=%s misses=%d missrate=%.4f lagp99=%v watermark=%v drift=%v\n",
				sh.Shard, sh.Clients, sh.Scheduled, sh.Dispatched, sh.Entered, sh.QueueDepth,
				sh.FireBatches, sh.Wakeups, sh.SpuriousWakes, sh.KicksDelivered, sh.KicksElided,
				sh.Health, sh.DeadlineMisses, sh.MissRate, sh.LagP99, sh.LagWatermark, sh.Drift)
		}
		// Federated servers add one cluster summary line and one line per
		// peer: trunk state, cross-server traffic, and how far behind the
		// coordinator's mutation stream each peer last reported itself.
		if cs := s.emu.Cluster(); cs != nil {
			fmt.Fprintf(w, "  cluster id=%s self=%d coordinator=%d peers=%d repseq=%d appliedseq=%d snapshots=%d"+
				" remote=%d pending=%d recvd=%d trunkdropped=%d reperrors=%d staleness=%v\n",
				cs.ID, cs.Self, cs.Coordinator, cs.Peers, cs.RepSeq, cs.AppliedSeq, cs.Snapshots,
				cs.RemoteEntries, cs.PendingEntries, cs.RecvEntries, cs.TrunkDropped, cs.RepErrors,
				time.Duration(cs.StalenessNs))
			for _, ps := range cs.PeerStats {
				self := ""
				if ps.Self {
					self = " (self)"
				}
				fmt.Fprintf(w, "  peer %d addr=%s%s health=%s applied=%d", ps.Peer, ps.Addr, self,
					ps.Health, ps.AppliedSeq)
				if !ps.Self && cs.Self == cs.Coordinator {
					// The coordinator judges each follower's scene digest.
					digest := "ok"
					if ps.Diverged {
						digest = "diverged"
					}
					fmt.Fprintf(w, " digest=%s", digest)
				}
				if !ps.Self {
					// perwrite is the trunk's coalescing ratio: entries per
					// frame written (heartbeats and scene frames included).
					perWrite := 0.0
					if ps.SentMsgs > 0 {
						perWrite = float64(ps.SentEntries) / float64(ps.SentMsgs)
					}
					fmt.Fprintf(w, " trunkup=%v sent=%d writes=%d perwrite=%.1f dropped=%d pending=%d reconnects=%d dialfails=%d",
						ps.TrunkUp, ps.SentEntries, ps.SentMsgs, perWrite, ps.DroppedEntries, ps.Pending,
						ps.Reconnects, ps.DialFailures)
				}
				fmt.Fprintln(w)
			}
		}
		// One line per channel: how often its dispatch view was rebuilt
		// (the §4.2 channel-indexed update cost, live).
		rebuilds := s.scene.ViewRebuildCounts()
		chans := make([]radio.ChannelID, 0, len(rebuilds))
		for ch := range rebuilds {
			chans = append(chans, ch)
		}
		sort.Slice(chans, func(i, j int) bool { return chans[i] < chans[j] })
		for _, ch := range chans {
			fmt.Fprintf(w, "  %v viewrebuilds=%d\n", ch, rebuilds[ch])
		}
		// One line per session: its traffic and slow-client queue state.
		for _, ss := range s.emu.SessionStats() {
			fmt.Fprintf(w, "  %v received=%d forwarded=%d queuedrops=%d queuedepth=%d\n",
				ss.ID, ss.Received, ss.Forwarded, ss.QueueDrops, ss.QueueDepth)
		}
		// Sampled per-stage latency quantiles from the metrics registry.
		reg := s.emu.Obs()
		for _, hd := range [...]struct{ label, name string }{
			{"ingest", "poem_ingest_ns"}, {"dispatch", "poem_dispatch_ns"},
			{"enqueue", "poem_enqueue_ns"}, {"send", "poem_send_ns"},
			{"deliverlag", "poem_deliver_lag_ns"},
		} {
			h := reg.FindHistogram(hd.name)
			if h == nil || h.Count() == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s samples=%d p50=%v p95=%v p99=%v\n", hd.label, h.Count(),
				time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.95)),
				time.Duration(h.Quantile(0.99)))
		}
	default:
		// Everything else is a scene mutation: reuse the script parser
		// by prefixing an immediate timestamp.
		sp, err := script.Parse(strings.NewReader("at 0s " + line + "\n"))
		if err != nil {
			fmt.Fprintf(w, "err: %v\n", err)
			return
		}
		if len(sp.Steps) != 1 {
			fmt.Fprintln(w, "err: expected exactly one command")
			return
		}
		if err := sp.Steps[0].Do(s.scene); err != nil {
			fmt.Fprintf(w, "err: %v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
	}
}
