//go:build unix

package transport

import (
	"io"
	"os"
	"syscall"

	"repro/internal/mbuf"
)

// rawReader reads through the socket's RawConn, so the attempt that
// finds the socket empty runs on this goroutine before it parks.
type rawReader struct {
	rc    syscall.RawConn // nil: plain reads from src
	tryFn func(fd uintptr) bool
	need  int // tryRead's room, passed through the RawConn
}

func (f *frameReader) init(src io.Reader, pool *mbuf.Pool) {
	f.src, f.pool = src, pool
	if sc, ok := src.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			// Bound once: a method value made per read would allocate.
			f.rc, f.tryFn = rc, f.tryRead
		}
	}
}

func (f *frameReader) read(need int) {
	if f.rc == nil {
		f.readPlain(need)
		return
	}
	f.need = need
	if err := f.rc.Read(f.tryFn); err != nil && f.rerr == nil {
		f.rerr = err
	}
}

// tryRead is one non-blocking read. When the socket is empty it returns
// the buffer, unless it holds unread bytes, and reports false: the
// RawConn parks until the socket is readable and calls it again.
func (f *frameReader) tryRead(fd uintptr) bool {
	f.ensure(f.need)
	n, err := syscall.Read(int(fd), f.data[f.w:])
	for err == syscall.EINTR {
		n, err = syscall.Read(int(fd), f.data[f.w:])
	}
	switch {
	case err == syscall.EAGAIN:
		if f.r == f.w {
			f.release()
		}
		return false
	case err != nil:
		f.rerr = os.NewSyscallError("read", err)
	case n == 0:
		f.rerr = io.EOF
	default:
		f.w += n
	}
	return true
}
