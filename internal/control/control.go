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
//	stats            the server's metrics registry, as /metrics renders it
//	sessions         per-session traffic and send-queue state
//	quit
package control

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
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
	case "stats", "sessions":
		if s.emu == nil {
			fmt.Fprintln(w, "err: no emulation server attached")
			return
		}
		if fields[0] == "stats" {
			s.emu.Obs().WritePrometheus(w)
			return
		}
		// One line per session: its traffic and slow-client queue state.
		for _, ss := range s.emu.SessionStats() {
			fmt.Fprintf(w, "  %v received=%d forwarded=%d queuedrops=%d queuedepth=%d\n",
				ss.ID, ss.Received, ss.Forwarded, ss.QueueDrops, ss.QueueDepth)
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
