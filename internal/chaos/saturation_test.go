package chaos

// Satellite scenario: a session's send queue saturated entirely by
// radio-set notifications while its client is wedged (connected, never
// reading). The drop-oldest policy then churns notification-on-
// notification — which must NOT move the QueueDrops counter, because a
// displaced notification never entered the packet-conservation ledger.
// Data arriving at the saturated queue IS counted, and the ledger must
// close exactly: Entered == Forwarded + QueueDrops + Abandoned. The
// whole run goes through the pooled ingress so the mbuf leak check
// covers the reject path too.

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
			srv, err := core.NewServer(core.ServerConfig{
				Clock: clk, Scene: sc, Seed: 1, Shards: shards,
				// Tiny queue so saturation needs few events; the writer
				// wedges long before the in-process pipe could absorb the
				// flood below.
				SendQueueDepth: 4,
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

			// Flood scene notifications at node 2 — alternate the range so
			// every call is a real radio-set change — until the writer is
			// provably wedged: once the transport pipe is full the writer
			// blocks mid-send, and the queue stays at its limit across a
			// pause instead of draining in microseconds. Everything past
			// that point is pure notification-displaces-notification churn.
			radios := [2][]radio.Radio{
				{{Channel: 1, Range: 200}},
				{{Channel: 1, Range: 201}},
			}
			depth2 := func() int {
				for _, ss := range srv.SessionStats() {
					if ss.ID == 2 {
						return ss.QueueDepth
					}
				}
				return -1
			}
			wedged := false
			for tries := 0; tries < 200 && !wedged; tries++ {
				for i := 0; i < 600; i++ {
					sc.SetRadios(2, radios[i%2])
				}
				time.Sleep(10 * time.Millisecond)
				wedged = depth2() >= 4
			}
			if !wedged {
				t.Fatal("could not wedge the writer: send queue keeps draining")
			}
			if drops := srv.Stats().QueueDrops; drops != 0 {
				t.Fatalf("notification churn charged %d queue drops, want 0", drops)
			}

			// Data into the saturated session: the wedged writer never
			// drains, so at most queue-limit deliveries can ever be
			// accepted (into slots the writer's final in-flight batch
			// vacated); everything else is rejected and counted. None is
			// ever forwarded.
			const sends = 50
			const queueLimit = 4
			for i := 0; i < sends; i++ {
				if err := c1.SendTo(2, 1, 0, []byte("saturated")); err != nil {
					t.Fatal(err)
				}
			}
			if !pollUntil(5*time.Second, func() bool {
				st := srv.Stats()
				return st.Entered == sends && st.QueueDrops >= sends-queueLimit
			}) {
				st := srv.Stats()
				t.Fatalf("queue drops = %d, want ≥ %d (entered %d, forwarded %d)",
					st.QueueDrops, sends-queueLimit, st.Entered, st.Forwarded)
			}
			st := srv.Stats()
			if st.Forwarded != 0 {
				t.Fatalf("forwarded = %d through a wedged client, want 0", st.Forwarded)
			}
			if st.QueueDrops > sends {
				t.Fatalf("queue drops = %d exceed the %d packets sent", st.QueueDrops, sends)
			}

			c1.Close()
			conn2.Close() // unblocks the wedged writer with ErrClosed
			lis.Close()
			srv.Close()
			<-serveDone

			// Teardown abandons whatever was still queued; the ledger must
			// now close exactly — every delivery that entered the schedule
			// ended as forwarded, queue-dropped, or abandoned, and the
			// displaced notifications appear nowhere in it.
			end := srv.Stats()
			if end.Entered != sends {
				t.Fatalf("entered = %d, want %d", end.Entered, sends)
			}
			if end.Entered != end.Forwarded+end.QueueDrops+end.Abandoned {
				t.Fatalf("ledger broken after close: entered %d != forwarded %d + drops %d + abandoned %d",
					end.Entered, end.Forwarded, end.QueueDrops, end.Abandoned)
			}
			if end.Abandoned > queueLimit {
				t.Fatalf("abandoned = %d, want ≤ the queue limit %d", end.Abandoned, queueLimit)
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("mbuf leak: %d pooled buffers still live after teardown", live)
			}
		})
	}
}
