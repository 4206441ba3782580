package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/gatetest"
	"repro/internal/mbuf"
	"repro/internal/radio"
	"repro/internal/wire"
)

// chunkReader is a net.Conn that hands out b in chunks: the i-th Read
// returns at most sizes[i%len(sizes)]+1 bytes (everything asked for
// when sizes is empty), then io.EOF.
type chunkReader struct {
	net.Conn // nil: only Read is ever called
	b        []byte
	sizes    []byte
	i        int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	if len(c.sizes) > 0 {
		p = p[:min(len(p), int(c.sizes[c.i%len(c.sizes)])+1)]
		c.i++
	}
	n := copy(p, c.b)
	c.b = c.b[n:]
	return n, nil
}

func encode(t *testing.T, m wire.Msg) []byte {
	t.Helper()
	b, err := wire.AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkFrameReader reads stream through the frame reader, chunked by
// sizes, and requires wire.ReadMsg's messages and final error. Every
// other message is held to the end and must still encode the same then;
// after the last release the pool must hold no buffer.
func checkFrameReader(t *testing.T, stream, sizes []byte, dialed bool) {
	var want [][]byte
	r := bytes.NewReader(stream)
	var wantErr error
	for {
		m, err := wire.ReadMsg(r)
		if err != nil {
			wantErr = err
			break
		}
		want = append(want, encode(t, m))
	}

	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	c := newTCPConn(&chunkReader{b: stream, sizes: sizes}, pool, dialed)
	var held []wire.Msg
	var heldAt []int
	for i := 0; ; i++ {
		m, err := c.Recv()
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("message %d: error %v, wire.ReadMsg says %v", i, err, wantErr)
			}
			if i != len(want) {
				t.Fatalf("stopped after %d messages, wire.ReadMsg read %d", i, len(want))
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("message %d (%v) past wire.ReadMsg's %d", i, m.Type(), len(want))
		}
		if got := encode(t, m); !bytes.Equal(got, want[i]) {
			t.Fatalf("message %d decodes differently from wire.ReadMsg's", i)
		}
		if i%2 == 0 {
			held, heldAt = append(held, m), append(heldAt, i)
		} else {
			wire.ReleaseMsg(m)
		}
	}
	for k, m := range held {
		if got := encode(t, m); !bytes.Equal(got, want[heldAt[k]]) {
			t.Fatalf("held message %d changed while later frames were read", heldAt[k])
		}
		wire.ReleaseMsg(m)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d buffers live after the stream ended and every message was released", live)
	}
}

// bigFrame is a Bye frame whose length prefix says n.
func bigFrame(n int) []byte {
	b := make([]byte, 4+n)
	b[0], b[1], b[2], b[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	b[4] = byte(wire.TypeBye)
	for i := 5; i < len(b); i++ {
		b[i] = 'b'
	}
	return b
}

func frames(t testing.TB, ms ...wire.Msg) []byte {
	var b []byte
	for _, m := range ms {
		var err error
		if b, err = wire.AppendFrame(b, m); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// FuzzFrameReader: the frame reader decodes any byte stream, split at
// any chunk boundaries, into wire.ReadMsg's messages and final error —
// io.EOF only between frames, io.ErrUnexpectedEOF inside one,
// ErrShortBody, ErrFrameTooLarge — on dialed and accepted connections.
// A nonzero big puts a frame of 64 KiB - 64 up to just past MaxFrame in
// front, so frames too large for the read buffer take its fallback.
func FuzzFrameReader(f *testing.F) {
	seq := frames(f,
		&wire.Hello{Ver: wire.Version, ProposedID: 1},
		&wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Channel: 3, Seq: 4, Payload: []byte("payload")}},
		&wire.SyncReply{TC1: 1, TS2: 2, TS3: 3},
		&wire.Event{Kind: wire.EventRadios, Radios: []radio.Radio{{Channel: 1, Range: 100}}},
		&wire.Data{Pkt: wire.Packet{Src: 5, Seq: 6}},
		&wire.TrunkBatch{Entries: []wire.TrunkEntry{{Due: 1, To: 2, Pkt: wire.Packet{Src: 3, Payload: []byte("e")}}}},
		&wire.Bye{Reason: "done"},
	)
	f.Add(seq, []byte{}, uint32(0))
	f.Add(seq, []byte{0}, uint32(0))
	f.Add(seq, []byte{2, 0, 7, 30}, uint32(0))
	f.Add(seq[:len(seq)-3], []byte{5}, uint32(0)) // cut inside the last frame
	f.Add(seq[:2], []byte{}, uint32(0))           // cut inside the first header
	f.Add([]byte{0, 0, 0, 0, 1}, []byte{}, uint32(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, []byte{}, uint32(0))
	f.Add([]byte{0, 0, 0, 1, 99}, []byte{}, uint32(0))
	f.Add(seq, []byte{255, 3}, uint32(65))
	f.Add(seq, []byte{}, uint32(wire.MaxFrame-readBufSize+64))
	f.Add(seq, []byte{}, uint32(wire.MaxFrame-readBufSize+65)) // one past MaxFrame
	f.Fuzz(func(t *testing.T, stream, sizes []byte, big uint32) {
		if big != 0 {
			n := readBufSize - 64 + int(big%(wire.MaxFrame-readBufSize+128))
			stream = append(bigFrame(n), stream...)
		}
		for _, dialed := range []bool{true, false} {
			checkFrameReader(t, stream, sizes, dialed)
			if len(stream) <= 1<<17 {
				checkFrameReader(t, stream, []byte{0}, dialed) // one byte at a time
			}
		}
	})
}

// A frame straddling the end of the read buffer moves, with whatever
// follows it, to a fresh buffer: a message still held from the old one
// keeps its bytes.
func TestFrameStraddlingTheBufferLeavesHeldBytesAlone(t *testing.T) {
	pkt := func(seq uint32, fill byte, n int) *wire.Data {
		return &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Seq: seq, Payload: bytes.Repeat([]byte{fill}, n)}}
	}
	// a and b end 470 bytes short of 64 KiB; c straddles the boundary.
	stream := frames(t, pkt(1, 0xAA, 1000), pkt(2, 0xBB, 64000), pkt(3, 0xCC, 1000))
	if end := len(stream) - 1033; end >= readBufSize || len(stream) <= readBufSize {
		t.Fatalf("frame c spans %d..%d, want it across %d", end, len(stream), readBufSize)
	}
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	c := newTCPConn(&chunkReader{b: stream}, pool, true)
	var ms []*wire.Data
	for i := 0; i < 3; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m.(*wire.Data))
		if i == 1 {
			wire.ReleaseData(ms[1]) // b retires; a is still held
		}
	}
	if !bytes.Equal(ms[0].Pkt.Payload, bytes.Repeat([]byte{0xAA}, 1000)) {
		t.Fatal("the straddling frame overwrote a held message")
	}
	if ms[0].Pkt.Buf == ms[2].Pkt.Buf {
		t.Fatal("the straddling frame was decoded in the buffer it straddled")
	}
	if !bytes.Equal(ms[2].Pkt.Payload, bytes.Repeat([]byte{0xCC}, 1000)) {
		t.Fatal("the straddling frame decoded wrong")
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	wire.ReleaseData(ms[0])
	wire.ReleaseData(ms[2])
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d buffers live", live)
	}
}

// Frames from just under the read buffer to MaxFrame decode whole, the
// ones too large for it through a buffer sized for the frame; one past
// MaxFrame is refused.
func TestFrameReaderLargeFrames(t *testing.T) {
	for _, n := range []int{readBufSize - 5, readBufSize - 4, readBufSize - 3, readBufSize, 2 * readBufSize, wire.MaxFrame, wire.MaxFrame + 1} {
		stream := append(frames(t, &wire.SyncReq{TC1: 1}), bigFrame(n)...)
		stream = append(stream, frames(t, &wire.Data{Pkt: wire.Packet{Seq: 9, Payload: []byte("after")}})...)
		for _, sizes := range [][]byte{nil, {254, 255, 7}} {
			for _, dialed := range []bool{true, false} {
				checkFrameReader(t, stream, sizes, dialed)
			}
		}
	}
}

// loopback returns a tcpConn over a real socket with read buffers from
// pool — dialed, or accepted by a listener on pool — and the raw socket
// at its other end.
func loopback(t *testing.T, pool *mbuf.Pool, dialed bool) (*tcpConn, net.Conn) {
	t.Helper()
	var c *tcpConn
	var peer net.Conn
	if dialed {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		raw, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if peer, err = l.Accept(); err != nil {
			t.Fatal(err)
		}
		c = newTCPConn(raw, pool, true)
	} else {
		l, err := ListenTCPWithPool("127.0.0.1:0", pool)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if peer, err = net.Dial("tcp", l.Addr()); err != nil {
			t.Fatal(err)
		}
		conn, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c = conn.(*tcpConn)
	}
	t.Cleanup(func() { c.Close(); peer.Close() })
	return c, peer
}

func waitLive(t *testing.T, pool *mbuf.Pool, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pool.Live() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d buffers live, want %d", what, pool.Live(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every way a connection ends returns its read buffer, on accepted and
// dialed connections alike: Close while Recv waits on a partial frame,
// Close while a partial frame sits unread and nobody calls Recv, the
// peer's orderly close mid-frame, and a reset.
func TestReadBufferReturnedOnEveryTerminalPath(t *testing.T) {
	frame := frames(t, &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Seq: 1, Payload: make([]byte, 64)}})
	half := frame[:len(frame)/2]
	for _, dialed := range []bool{true, false} {
		name := map[bool]string{true: "dialed", false: "accepted"}[dialed]
		t.Run(name+"/close-during-recv", func(t *testing.T) {
			pool := mbuf.NewPool()
			c, peer := loopback(t, pool, dialed)
			peer.Write(half)
			errc := make(chan error, 1)
			go func() { _, err := c.Recv(); errc <- err }()
			waitLive(t, pool, 1, "partial frame buffered")
			c.Close()
			if err := <-errc; err != io.EOF {
				t.Errorf("Recv after Close: %v, want io.EOF", err)
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("%d buffers live after Close", live)
			}
		})
		t.Run(name+"/close-between-recvs", func(t *testing.T) {
			pool := mbuf.NewPool()
			c, peer := loopback(t, pool, dialed)
			peer.Write(append(append([]byte(nil), frame...), half...))
			m, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			wire.ReleaseMsg(m)
			c.Close() // the rest of the buffer, partial frame or not, is unread
			if live := pool.Live(); live != 0 {
				t.Fatalf("%d buffers live after Close", live)
			}
			if _, err := c.Recv(); err != io.EOF {
				t.Fatalf("Recv after Close: %v, want io.EOF", err)
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("Recv after Close borrowed a buffer: %d live", live)
			}
		})
		t.Run(name+"/peer-closes-mid-frame", func(t *testing.T) {
			pool := mbuf.NewPool()
			c, peer := loopback(t, pool, dialed)
			peer.Write(half)
			peer.Close()
			if _, err := c.Recv(); err != io.ErrUnexpectedEOF {
				t.Fatalf("Recv: %v, want io.ErrUnexpectedEOF", err)
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("%d buffers live after the stream ended mid-frame", live)
			}
		})
		t.Run(name+"/peer-resets", func(t *testing.T) {
			pool := mbuf.NewPool()
			c, peer := loopback(t, pool, dialed)
			peer.Write(half)
			peer.(*net.TCPConn).SetLinger(0)        // close sends RST
			waitLive(t, pool, 0, "before the read") // nothing read yet, nothing borrowed
			errc := make(chan error, 1)
			go func() { _, err := c.Recv(); errc <- err }()
			waitLive(t, pool, 1, "partial frame buffered")
			peer.Close()
			if err := <-errc; err == nil || err == io.EOF {
				t.Fatalf("Recv after a reset: %v, want a read error", err)
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("%d buffers live after a reset", live)
			}
		})
	}
}

// A message that is never released keeps its bytes however much is read
// after it: its buffer is never recycled.
func TestUnreleasedMessageKeepsItsBytes(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	c, peer := loopback(t, pool, true)
	want := bytes.Repeat([]byte("kept"), 16)
	peer.Write(frames(t, &wire.Data{Pkt: wire.Packet{Seq: 0, Payload: want}}))
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	kept := m.(*wire.Data)
	const bursts, perBurst = 20, 400 // ≈ 40 KiB a burst, 12 read buffers' worth
	go func() {
		burst := make([]wire.Msg, perBurst)
		for i := 0; i < bursts; i++ {
			for j := range burst {
				burst[j] = &wire.Data{Pkt: wire.Packet{Seq: uint32(i*perBurst + j + 1), Payload: make([]byte, 64)}}
			}
			peer.Write(frames(t, burst...))
			time.Sleep(time.Millisecond) // let the reader find the socket empty
		}
	}()
	for i := 0; i < bursts*perBurst; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		wire.ReleaseMsg(m)
	}
	if !bytes.Equal(kept.Pkt.Payload, want) {
		t.Fatalf("held payload now reads %q", kept.Pkt.Payload)
	}
	wire.ReleaseData(kept)
	c.Close()
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d buffers live", live)
	}
}

// In leak-check mode a payload read after its release reads poison: the
// payload aliases the read buffer, which the release recycled.
func TestPayloadAfterReleaseReadsPoison(t *testing.T) {
	pool := mbuf.NewPool()
	pool.SetLeakCheck(true)
	c, peer := loopback(t, pool, true)
	peer.Write(frames(t, &wire.Data{Pkt: wire.Packet{Seq: 1, Payload: []byte("live bytes")}}))
	peer.Close()
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != io.EOF { // the reader lets go of the buffer
		t.Fatalf("Recv: %v, want io.EOF", err)
	}
	payload := m.(*wire.Data).Pkt.Payload
	wire.ReleaseMsg(m) // the last reference: the buffer is poisoned and recycled
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xDB}, len(payload))) {
		t.Fatalf("payload after release reads %q, want poison", payload)
	}
}

// Where a frame buffer, a Data and a payload copy were one allocation
// each (EXPERIMENTS.md A19), none is left. 20 000 iterations, so the
// first borrowed buffer and the pool's first wrappers amortize out.
func TestAllocGateTCPClientRecv(t *testing.T) {
	gatetest.Allocs(t, "TCPClientRecv", 20000, 0)
}

// BenchmarkTCPClientRecv is the emulation client's receive path over
// loopback: the peer writes bursts of 64-byte Data frames, the dialed
// connection decodes each in place and the message is released, as
// Client.recvLoop does.
func BenchmarkTCPClientRecv(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()
	c := newTCPConn(raw, nil, true)
	defer c.Close()
	const burst = 64
	var stream []byte
	for i := 0; i < burst; i++ {
		stream = append(stream, frames(b, &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Channel: 1, Seq: uint32(i), Payload: make([]byte, 64)}})...)
	}
	per := len(stream) / burst
	b.ReportAllocs()
	b.ResetTimer()
	wrote := make(chan error, 1)
	go func() {
		for left := b.N; left > 0; left -= burst {
			if _, err := peer.Write(stream[:min(left, burst)*per]); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	for i := 0; i < b.N; i++ {
		m, err := c.Recv()
		if err != nil {
			b.Fatal(err)
		}
		wire.ReleaseMsg(m)
	}
	b.StopTimer()
	if err := <-wrote; err != nil {
		b.Fatal(err)
	}
}
