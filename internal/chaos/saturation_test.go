package chaos

// Satellite scenario: a session whose client is wedged (connected,
// never reading) while its radio set keeps changing. Data wedges it:
// the writer fills the transport pipe and blocks mid-send, and the
// send queue behind it stays full. A flood of radio changes then only
// raises the session's radios flag: it takes no queue slot, so neither
// QueueDrops nor the queue depth may move. Data arriving at the
// saturated queue evicts the oldest packet and IS counted, and the
// ledger must close exactly: Entered == Forwarded + QueueDrops +
// Abandoned. The whole run goes through the pooled ingress so the mbuf
// leak check covers the eviction path too.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestNotificationSaturationConservation(t *testing.T) {
	for _, shards := range shardCounts() {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pool := mbuf.NewPool()
			pool.SetLeakCheck(true)
			clk := vclock.NewSystem(50)
			sc := scene.New(radio.NewIndexed(250), clk, 1)
			clean, err := cleanModel(time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.SetLinkModel(1, clean); err != nil {
				t.Fatal(err)
			}
			sc.AddNode(1, geom.V(0, 0), []radio.Radio{{Channel: 1, Range: 200}})
			sc.AddNode(2, geom.V(50, 0), []radio.Radio{{Channel: 1, Range: 200}})
			const queueLimit = 4
			srv, err := core.NewServer(core.ServerConfig{
				Clock: clk, Scene: sc, Seed: 1, Shards: shards,
				// Tiny queue: once the pipe is full, four packets fill it.
				SendQueueDepth: queueLimit,
			})
			if err != nil {
				t.Fatal(err)
			}
			lis := transport.NewInprocListener()
			serveDone := make(chan struct{})
			go func() { defer close(serveDone); srv.Serve(transport.PoolIngress(lis, pool)) }()

			// Node 2 is a wedged client: raw handshake, then it never
			// reads again. Its writer fills the transport pipe and blocks;
			// everything behind backs up into the 4-deep send queue.
			conn2, err := lis.Dial()
			if err != nil {
				t.Fatal(err)
			}
			if err := conn2.Send(&wire.Hello{Ver: wire.Version, ProposedID: 2}); err != nil {
				t.Fatal(err)
			}
			if m, err := conn2.Recv(); err != nil {
				t.Fatal(err)
			} else if _, ok := m.(*wire.HelloAck); !ok {
				t.Fatalf("handshake reply %v, want HelloAck", m.Type())
			}

			c1, err := core.Dial(core.ClientConfig{ID: 1, Dial: lis.Dialer(), LocalClock: clk})
			if err != nil {
				t.Fatal(err)
			}

			depth2 := func() int {
				for _, ss := range srv.SessionStats() {
					if ss.ID == 2 {
						return ss.QueueDepth
					}
				}
				return -1
			}
			sent := uint64(0)
			send := func(n int) {
				for i := 0; i < n; i++ {
					if err := c1.SendTo(2, 1, 0, []byte("saturated")); err != nil {
						t.Fatal(err)
					}
				}
				sent += uint64(n)
				if !pollUntil(5*time.Second, func() bool {
					st := srv.Stats()
					return st.Entered == sent && st.Scheduled == 0
				}) {
					t.Fatalf("entered %d of %d packets", srv.Stats().Entered, sent)
				}
			}
			// Wedge the writer with data: once the transport pipe is full
			// the writer blocks mid-send, and the queue stays at its limit
			// across a pause instead of draining in microseconds.
			wedged := false
			for tries := 0; tries < 200 && !wedged; tries++ {
				send(600)
				time.Sleep(10 * time.Millisecond)
				wedged = depth2() >= queueLimit
			}
			if !wedged {
				t.Fatal("could not wedge the writer: send queue keeps draining")
			}
			wedge, wedgeDepth := srv.Stats(), depth2()

			// Flood radio changes at node 2, alternating the range so every
			// call is a real change. Each raises the flag the wedged writer
			// cannot take: no slot, no drop, no depth.
			radios := [2][]radio.Radio{
				{{Channel: 1, Range: 200}},
				{{Channel: 1, Range: 201}},
			}
			for i := 0; i < 2000; i++ {
				sc.SetRadios(2, radios[i%2])
			}
			time.Sleep(10 * time.Millisecond)
			if st, d := srv.Stats(), depth2(); st.QueueDrops != wedge.QueueDrops || d != wedgeDepth {
				t.Fatalf("radio changes moved the queue: drops %d → %d, depth %d → %d",
					wedge.QueueDrops, st.QueueDrops, wedgeDepth, d)
			}

			// Data into the saturated session: the wedged writer never
			// drains, so at most queue-limit of these deliveries can stay
			// queued; every other one is evicted and counted. None is
			// forwarded.
			const sends = 50
			send(sends)
			// An empty schedule does not mean the scanner has finished
			// pushing the last batch it fired into the full queue, and an
			// entry it has yet to push when the session closes is
			// abandoned, past the bound below. Into the queue the wedge
			// filled, every entry evicts one: the drops are polled up to
			// that count, then bounded.
			pollUntil(5*time.Second, func() bool {
				return srv.Stats().QueueDrops-wedge.QueueDrops >= sends
			})
			st := srv.Stats()
			if drops := st.QueueDrops - wedge.QueueDrops; drops < sends-queueLimit || drops > sends {
				t.Fatalf("queue drops rose by %d, want %d..%d", drops, sends-queueLimit, sends)
			}
			if st.Forwarded != wedge.Forwarded {
				t.Fatalf("forwarded %d → %d through a wedged client", wedge.Forwarded, st.Forwarded)
			}

			c1.Close()
			conn2.Close() // unblocks the wedged writer with ErrClosed
			// What the pipe still holds is the client's to read after the
			// close, as TCP's in-flight bytes are; reading releases it.
			for {
				m, err := conn2.Recv()
				if err != nil {
					break
				}
				wire.ReleaseMsg(m)
			}
			lis.Close()
			srv.Close()
			<-serveDone

			// Teardown abandons what was still queued and what the
			// writer's blocked batch (itself at most queue-limit entries)
			// could not send; the ledger must now close exactly — every
			// delivery that entered the schedule ended as forwarded,
			// queue-dropped, or abandoned, and the radio changes appear
			// nowhere in it.
			end := srv.Stats()
			if end.Entered != sent {
				t.Fatalf("entered = %d, want %d", end.Entered, sent)
			}
			if end.Entered != end.Forwarded+end.QueueDrops+end.Abandoned {
				t.Fatalf("ledger broken after close: entered %d != forwarded %d + drops %d + abandoned %d",
					end.Entered, end.Forwarded, end.QueueDrops, end.Abandoned)
			}
			if end.Abandoned > 2*queueLimit {
				t.Fatalf("abandoned = %d, want ≤ twice the queue limit %d", end.Abandoned, queueLimit)
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("mbuf leak: %d pooled buffers still live after teardown", live)
			}
		})
	}
}
