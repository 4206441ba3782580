//go:build unix

package transport

import (
	"testing"

	"repro/internal/mbuf"
	"repro/internal/wire"
)

// An idle connection holds no read buffer: once Recv finds the socket
// empty, the buffer goes back before the goroutine parks.
func TestIdleConnectionHoldsNoReadBuffer(t *testing.T) {
	pool := mbuf.NewPool()
	c, peer := loopback(t, pool, true)
	if c.rd.rc == nil {
		t.Fatal("a TCP socket is read without its RawConn")
	}
	peer.Write(frames(t, &wire.Data{Pkt: wire.Packet{Seq: 1, Payload: []byte("x")}}))
	got := make(chan wire.Msg)
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- m
		}
	}()
	m := <-got
	wire.ReleaseMsg(m)
	waitLive(t, pool, 0, "idle after one message")
	c.Close()
	if _, ok := <-got; ok {
		t.Fatal("message after Close")
	}
}
