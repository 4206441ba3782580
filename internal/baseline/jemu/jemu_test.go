package jemu

import (
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// serialRig is a SerialInterface over an in-proc listener, with dial
// returning both halves of a fresh connection.
type serialRig struct {
	t    *testing.T
	lis  *transport.InprocListener
	wrap *serialListener
}

func newSerialRig(t *testing.T, perPacket time.Duration) *serialRig {
	lis := transport.NewInprocListener()
	t.Cleanup(func() { lis.Close() })
	return &serialRig{t: t, lis: lis, wrap: SerialInterface(lis, perPacket).(*serialListener)}
}

func (r *serialRig) dial() (client, server transport.Conn) {
	r.t.Helper()
	client, err := r.lis.Dial()
	if err != nil {
		r.t.Fatal(err)
	}
	server, err = r.wrap.Accept()
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { client.Close() })
	return client, server
}

// N clients bursting at once are received one slot at a time. Every
// slot holds the interface for perPacket, so the k-th Data to come out
// of any Recv cannot do so earlier than k·perPacket after the burst
// began — overlapping slots would beat that bound. (The instants are
// read after Recv returns, so scheduling delay only moves them later:
// the bound cannot fail spuriously, which a gap between two measured
// instants could.)
func TestSerialInterfaceSerializesData(t *testing.T) {
	const (
		senders   = 8
		perSender = 4
		perPacket = 2 * time.Millisecond
	)
	r := newSerialRig(t, perPacket)
	var (
		mu      sync.Mutex
		returns []time.Time
		wg      sync.WaitGroup
	)
	release := make(chan struct{})
	for i := 0; i < senders; i++ {
		client, server := r.dial()
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-release
			for k := 0; k < perSender; k++ {
				if err := client.Send(&wire.Data{Pkt: wire.Packet{Seq: uint32(k)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				if _, err := server.Recv(); err != nil {
					t.Error(err)
					return
				}
				now := time.Now()
				mu.Lock()
				returns = append(returns, now)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	close(release)
	wg.Wait()
	if len(returns) != senders*perSender {
		t.Fatalf("received %d packets, want %d", len(returns), senders*perSender)
	}
	sort.Slice(returns, func(i, j int) bool { return returns[i].Before(returns[j]) })
	for k, at := range returns {
		if floor := time.Duration(k+1) * perPacket; at.Sub(start) < floor {
			t.Fatalf("packet %d left the interface %v after the burst began, before %d slots of %v could have passed",
				k+1, at.Sub(start), k+1, perPacket)
		}
	}
}

// Control messages never touch the interface lock: they come through
// while the test itself holds it.
func TestSerialInterfacePassesControlMessages(t *testing.T) {
	r := newSerialRig(t, time.Hour)
	client, server := r.dial()
	r.wrap.mu.Lock()
	defer r.wrap.mu.Unlock()
	got := make(chan wire.Type, 2)
	go func() {
		for i := 0; i < 2; i++ {
			m, err := server.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			got <- m.Type()
		}
	}()
	for _, m := range []wire.Msg{&wire.Hello{Ver: wire.Version, ProposedID: 1}, &wire.SyncReq{TC1: 1}} {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		select {
		case typ := <-got:
			if typ != m.Type() {
				t.Fatalf("received %v, want %v", typ, m.Type())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v waited for the packet interface", m.Type())
		}
	}
}

// Closing a connection whose Recv is inside a slot ends its read loop
// with the connection's own error, within the slot's bound, and the
// wrapper leaves no goroutine behind.
func TestSerialInterfaceCloseDuringSlot(t *testing.T) {
	before := runtime.NumGoroutine()
	r := newSerialRig(t, 200*time.Millisecond)
	client, server := r.dial()
	loopErr := make(chan error, 1)
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				loopErr <- err
				return
			}
		}
	}()
	if err := client.Send(&wire.Data{}); err != nil {
		t.Fatal(err)
	}
	// Wait for the Recv to take the slot.
	for deadline := time.Now().Add(5 * time.Second); r.wrap.mu.TryLock(); {
		r.wrap.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("never saw the slot held")
		}
		runtime.Gosched()
	}
	server.Close()
	select {
	case err := <-loopErr:
		if err != io.EOF {
			t.Fatalf("read loop ended with %v, want the closed pipe's io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still blocked after Close")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFeatures(t *testing.T) {
	f := Features()
	if !f["real-time scene construction"] || f["real-time traffic recording"] {
		t.Errorf("JEmu feature row wrong: %v", f)
	}
	if f["multi-radio environment"] || f["post-emulation replay"] {
		t.Errorf("JEmu feature row wrong: %v", f)
	}
}
