//go:build !unix

package transport

import (
	"io"

	"repro/internal/mbuf"
)

// rawReader is empty off unix: a connection reads with plain blocking
// Reads and keeps its buffer while one waits.
type rawReader struct{}

func (f *frameReader) init(src io.Reader, pool *mbuf.Pool) { f.src, f.pool = src, pool }

func (f *frameReader) read(need int) { f.readPlain(need) }
