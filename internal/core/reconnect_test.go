package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/wire"
)

func waitReaped(t *testing.T, srv *Server, id radio.NodeID) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gone := true
		for _, st := range srv.SessionStats() {
			if st.ID == id {
				gone = false
			}
		}
		if gone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %v never reaped", id)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestReconnectMidBurstLedgerAndGoroutines hard-kills and re-dials a
// receiver while a sender bursts at it continuously, five times over.
// Afterwards the conservation ledger must balance exactly (every packet
// received became forwarded, queue-dropped, or abandoned — abandoned
// covers the windows where VMN 2 had no session), the obs registry must
// agree with the stats snapshot, and no session goroutines may leak.
func TestReconnectMidBurstLedgerAndGoroutines(t *testing.T) {
	forEachShardCount(t, testReconnectMidBurstLedgerAndGoroutines)
}

func testReconnectMidBurstLedgerAndGoroutines(t *testing.T, shards int) {
	r := newRig(t, func(c *ServerConfig) { c.Shards = shards })
	r.scene.AddNode(1, geom.V(0, 0), oneRadio(1, 200))
	r.scene.AddNode(2, geom.V(50, 0), oneRadio(1, 200))
	c1 := r.client(1, nil)
	base := runtime.NumGoroutine()

	var sent atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint32(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			if err := c1.Send(wire.Packet{Dst: 2, Channel: 1, Seq: seq}); err == nil {
				sent.Add(1)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	for cycle := 0; cycle < 5; cycle++ {
		var conn transport.Conn
		dialer := func() (transport.Conn, error) {
			c, err := r.lis.Dial()
			conn = c
			return c, err
		}
		sk := newSink()
		c2, err := Dial(ClientConfig{ID: 2, Dial: dialer, LocalClock: r.clk, OnPacket: sk.on})
		if err != nil {
			t.Fatalf("cycle %d: dial: %v", cycle, err)
		}
		// Let the burst hit this epoch: wait on the epoch's own sink, not
		// on a fixed sleep the sender can sleep through — a window with no
		// traffic in flight abandons nothing.
		for deadline := time.Now().Add(2 * time.Second); sk.count() < 8; {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: epoch received %d of 8 packets before the kill", cycle, sk.count())
			}
			time.Sleep(50 * time.Microsecond)
		}
		// Hard kill: cut the transport out from under the client — no Bye,
		// whatever was in flight is abandoned mid-pipeline.
		conn.Close()
		c2.Close()
		waitReaped(t, r.server, 2)
	}
	close(stop)
	wg.Wait()

	// Every successful Send was wired into the connection and must be
	// ingested; then the pipeline must drain and the ledger balance.
	deadline := time.Now().Add(5 * time.Second)
	for r.server.Stats().Received != sent.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("received %d != sent %d", r.server.Stats().Received, sent.Load())
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !r.server.Quiesce(5 * time.Second) {
		t.Fatalf("pipeline did not drain: %+v", r.server.Stats())
	}
	st := r.server.Stats()
	if st.Entered != st.Forwarded+st.QueueDrops+st.Abandoned {
		t.Errorf("ledger: entered %d != forwarded %d + queueDrops %d + abandoned %d",
			st.Entered, st.Forwarded, st.QueueDrops, st.Abandoned)
	}
	if st.Abandoned == 0 {
		t.Error("five kill windows produced zero abandoned deliveries; the test lost its teeth")
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"poem_received_total", st.Received},
		{"poem_forwarded_total", st.Forwarded},
		{"poem_schedule_entries_total", st.Entered},
		{"poem_abandoned_total", st.Abandoned},
	} {
		if got := metricValue(t, r.server, c.name); got != fmt.Sprint(c.want) {
			t.Errorf("obs %s = %s, stats say %d", c.name, got, c.want)
		}
	}

	// All five dead epochs' goroutines must be gone: after closing the
	// sender too, we should be back at (or below) the post-c1 baseline.
	c1.Close()
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
