package core

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gatetest"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// stackPerSession dials n clients into a fresh server over the given
// listener and returns how much StackInuse grew per session once every
// client has registered and synchronized its clock: the server's reader
// and writer, and the client's receive loop. No GC is forced between
// the two readings. A steady-state server allocates nothing, so the
// collector that would shrink a grown stack never runs, and a stack a
// goroutine grew once is the stack it keeps.
func stackPerSession(t *testing.T, n int, lis transport.Listener, dial transport.Dialer) float64 {
	t.Helper()
	clk := vclock.NewSystem(1)
	sc := scene.New(radio.NewIndexed(120), clk, 1)
	specs := make([]scene.NodeSpec, n)
	for i := range specs {
		specs[i] = scene.NodeSpec{ID: radio.NodeID(i + 1), Pos: geom.V(float64(i%128)*40, float64(i/128)*40),
			Radios: []radio.Radio{{Channel: 1, Range: 120}}}
	}
	if err := sc.AddNodes(specs); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Clock: clk, Scene: sc, Seed: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	clients := make([]*Client, 0, n)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		lis.Close()
		srv.Close()
		<-done
	}()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c, err := Dial(ClientConfig{ID: radio.NodeID(i + 1), Dial: dial, LocalClock: clk})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Clients != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions registered", srv.Stats().Clients, n)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.StackInuse-before.StackInuse) / float64(n)
}

// stackFootprintChild names the transport a child process of
// TestSessionStackFootprint measures; empty in the parent test.
const stackFootprintChild = "POEM_TEST_STACK_FOOTPRINT"

// A session's serving loop runs on a goroutine of its own, started once
// the handshake succeeded, so it never inherits the stack registration
// grew: in-process, a session and its client must cost under 7.5 KiB of
// stack (8.1 KiB when the loop ran on the handshake's goroutine, 6.5 KiB
// since, on linux/amd64 with go1.24). The figure over loopback TCP is
// logged beside it (10.1 and 8.3 KiB). Each figure is taken in a fresh
// run of the test binary: the runtime sizes new goroutines' stacks from
// the stacks its last collection scanned, so in a process that has run
// other tests (or this one at -count 2) the sessions can start at 4 KiB.
func TestSessionStackFootprint(t *testing.T) {
	if gatetest.Race {
		t.Skip("the race detector's instrumentation grows every stack")
	}
	if testing.Short() {
		t.Skip("dials 2 048 sessions")
	}
	const n = 2048
	switch os.Getenv(stackFootprintChild) {
	case "inproc":
		in := transport.NewInprocListener()
		fmt.Printf("stack-per-session %.0f\n", stackPerSession(t, n, in, in.Dialer()))
		return
	case "tcp":
		tcp, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("stack-per-session %.0f\n", stackPerSession(t, n, tcp, transport.TCPDialer(tcp.Addr())))
		return
	}
	measure := func(tr string) float64 {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSessionStackFootprint$", "-test.count=1", "-test.cpu=2")
		cmd.Env = append(os.Environ(), stackFootprintChild+"="+tr)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child: %v\n%s", tr, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			var b float64
			if _, err := fmt.Sscanf(line, "stack-per-session %g", &b); err == nil {
				return b
			}
		}
		t.Fatalf("%s child printed no figure:\n%s", tr, out)
		return 0
	}
	perInproc, perTCP := measure("inproc"), measure("tcp")
	t.Logf("StackInuse per session over %d sessions: in-proc %.1f KiB, loopback TCP %.1f KiB",
		n, perInproc/1024, perTCP/1024)
	if perInproc > 7.5*1024 {
		t.Fatalf("in-proc sessions grew StackInuse by %.1f KiB each, want at most 7.5 KiB", perInproc/1024)
	}
}
