package transport

import (
	"encoding/binary"
	"io"

	"repro/internal/mbuf"
	"repro/internal/wire"
)

// readBufSize is the read buffer a TCP connection borrows while it has
// unread bytes: the mbuf 64 KiB class, so the pool's classBudget bounds
// how many idle ones are kept.
const readBufSize = 64 << 10

// readBufs lends read buffers to connections that have no pool of their
// own: dialed ones and those accepted by ListenTCP.
var readBufs = mbuf.NewPool()

// frameReader splits a byte stream into wire frames inside a borrowed,
// reference-counted buffer. It holds one reference on the buffer while
// the buffer is current; a decoded message that aliases a frame takes
// one more (wire.DecodeFrameRef), so the buffer returns to its pool once
// every byte in it is consumed and no message still references it.
//
// The buffer is never compacted in place, since messages may alias any
// byte before r: when a frame needs more room than the buffer has left
// past r, the unread tail moves to a fresh buffer — one sized for the
// frame when it exceeds readBufSize, up to wire.MaxFrame. Where reads
// go through the socket's RawConn (unix), the attempt that finds no
// bytes returns a buffer holding no unread ones before the goroutine
// parks, so an idle connection holds none.
type frameReader struct {
	src  io.Reader
	pool *mbuf.Pool
	buf  *mbuf.Buf // nil while borrowing nothing
	data []byte    // buf's full capacity
	r, w int       // data[r:w] is read and not yet consumed
	rerr error     // the source's first error, returned once the bytes before it are consumed
	err  error     // next's first error, sticky
	rawReader
}

// next returns the next frame — its type byte and body, without the
// length prefix — aliasing the current buffer; it is valid until the
// next call. io.EOF means the stream ended at a frame boundary,
// io.ErrUnexpectedEOF inside a frame. After any error the buffer is
// returned and every later call fails the same way.
func (f *frameReader) next() ([]byte, error) {
	if f.err != nil {
		return nil, f.err
	}
	frame, err := f.frame()
	if err != nil {
		f.stop(err)
	}
	return frame, err
}

// stop fails every later next with err and returns the buffer.
func (f *frameReader) stop(err error) {
	if f.err == nil {
		f.err = err
	}
	f.release()
}

func (f *frameReader) frame() ([]byte, error) {
	if err := f.fill(4); err != nil {
		if err == io.EOF && f.w > f.r {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.data[f.r:]))
	switch {
	case n == 0:
		return nil, wire.ErrShortBody
	case n > wire.MaxFrame:
		return nil, wire.ErrFrameTooLarge
	}
	if err := f.fill(4 + n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	end := f.r + 4 + n
	frame := f.data[f.r+4 : end : end]
	f.r = end
	return frame, nil
}

// fill reads until need unread bytes are buffered.
func (f *frameReader) fill(need int) error {
	for f.w-f.r < need {
		if f.rerr != nil {
			return f.rerr
		}
		f.read(need)
	}
	return nil
}

// ensure makes room for need bytes from r on: it borrows a buffer when
// the reader holds none, and moves the unread tail to a fresh one when
// the current buffer ends too soon.
func (f *frameReader) ensure(need int) {
	if f.buf != nil && f.r+need <= len(f.data) {
		return
	}
	b := f.pool.Alloc(max(need, readBufSize))
	data := b.Bytes()[:b.Cap()]
	n := copy(data, f.data[f.r:f.w])
	f.release()
	f.buf, f.data, f.w = b, data, n
}

// release drops the reader's reference on its buffer along with any
// unread bytes.
func (f *frameReader) release() {
	f.buf.Free()
	f.buf, f.data, f.r, f.w = nil, nil, 0, 0
}

// readPlain is one blocking Read into the buffer, which stays borrowed
// while the Read waits.
func (f *frameReader) readPlain(need int) {
	f.ensure(need)
	n, err := f.src.Read(f.data[f.w:])
	f.w += n
	if err != nil {
		f.rerr = err
	}
}
