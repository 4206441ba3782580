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

// footprint is what one idle pair — a registered session and its
// client — holds: bytes of stack, and bytes and objects of live heap.
type footprint struct{ stack, heap, objects float64 }

// pairFootprint dials n clients into a fresh server over the given
// listener and returns what each pair added once every client has
// registered and synchronized its clock: the server's reader and the
// client's receive loop (a session that has received nothing has no
// writer), their goroutine descriptors, the session and the client.
// The scene is built before the first reading. No GC is forced between
// the two stack readings: a steady-state server allocates nothing, so
// the collector that would shrink a grown stack never runs, and a stack
// a goroutine grew once is the stack it keeps. The heap is read after
// one more collection, so it counts only what the pairs keep.
func pairFootprint(t *testing.T, n int, lis transport.Listener, dial transport.Dialer) footprint {
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
	stack := float64(after.StackInuse - before.StackInuse)
	runtime.GC()
	runtime.ReadMemStats(&after)
	return footprint{
		stack:   stack / float64(n),
		heap:    (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n),
		objects: (float64(after.HeapObjects) - float64(before.HeapObjects)) / float64(n),
	}
}

// stackFootprintChild names the transport a child process of
// TestSessionStackFootprint measures; empty in the parent test.
const stackFootprintChild = "POEM_TEST_STACK_FOOTPRINT"

// A session's serving loop runs on a goroutine of its own, started once
// the handshake succeeded, so it never inherits the stack registration
// grew, and its writer starts only with its first packet or radio
// change: in-process, a session and its client must cost under 5.5 KiB
// of stack (8.1 KiB when the loop ran on the handshake's goroutine, 6.5
// KiB with a writer started at registration, 4.4 KiB since, on
// linux/amd64 with go1.24). The figure over loopback TCP is logged
// beside it (10.1, 8.3 and 4.3 KiB). Each figure is taken in a fresh
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
		printFootprint(pairFootprint(t, n, in, in.Dialer()))
		return
	case "tcp":
		tcp, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		printFootprint(pairFootprint(t, n, tcp, transport.TCPDialer(tcp.Addr())))
		return
	}
	measure := func(tr string) footprint {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSessionStackFootprint$", "-test.count=1", "-test.cpu=2")
		cmd.Env = append(os.Environ(), stackFootprintChild+"="+tr)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child: %v\n%s", tr, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			var f footprint
			if _, err := fmt.Sscanf(line, footprintLine, &f.stack, &f.heap, &f.objects); err == nil {
				return f
			}
		}
		t.Fatalf("%s child printed no figure:\n%s", tr, out)
		return footprint{}
	}
	in, tcp := measure("inproc"), measure("tcp")
	t.Logf("per pair over %d pairs: in-proc %.1f KiB of stack, %.0f B of heap in %.1f objects; "+
		"loopback TCP %.1f KiB of stack, %.0f B of heap in %.1f objects",
		n, in.stack/1024, in.heap, in.objects, tcp.stack/1024, tcp.heap, tcp.objects)
	if in.stack > 5.5*1024 {
		t.Errorf("in-proc pairs grew StackInuse by %.1f KiB each, want at most 5.5 KiB", in.stack/1024)
	}
	if in.heap > 2.4*1024 || in.objects > 20 {
		t.Errorf("in-proc pairs hold %.0f B of heap in %.1f objects each, want at most 2.4 KiB in 20",
			in.heap, in.objects)
	}
}

// footprintLine is how a child of TestSessionStackFootprint reports its
// figures: stack, heap bytes and heap objects per pair.
const footprintLine = "pair-footprint %g %g %g"

func printFootprint(f footprint) {
	fmt.Printf("pair-footprint %.0f %.0f %.2f\n", f.stack, f.heap, f.objects)
}
