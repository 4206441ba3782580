package record

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/radio"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// The recording format. The store's segments, Save's output and an
// attached LogWriter's stream are the same bytes:
//
//	"PoEL" magic, uint16 version 3, then tagged rows:
//	  'P' + packet record (fixed 40 bytes)
//	  'S' + uint32 length + one scene journal record (scene.AppendRecord)
//
// A scene row is a scene change in its one encoding, the journal's, so
// the recording holds what the journal holds: node adds, removals,
// moves, radio sets and the pause flag. There are no counts: a recording
// ends where its rows end, and Load tolerates a truncated final row —
// exactly what a crashed emulation run leaves behind.

// header opens every recording. Version 1 stored scene coordinates as
// integer millimetres and version 2 scene changes as Op/Detail text;
// Load rejects both.
var header = []byte{'P', 'o', 'E', 'L', 0, 3}

const (
	packetLen    = 1 + 40 // tag + packet record
	sceneHead    = 1 + 4  // tag + length of the scene record
	maxRecordLen = sceneHead + scene.MaxRecordLen
)

// ErrBadLog reports a corrupt, foreign or older-version recording.
var ErrBadLog = errors.New("record: bad log")

// appendPacket appends p's record to b.
func appendPacket(b []byte, p *Packet) []byte {
	var r [packetLen]byte
	r[0], r[1] = 'P', byte(p.Kind)
	binary.BigEndian.PutUint64(r[2:], uint64(p.At))
	binary.BigEndian.PutUint64(r[10:], uint64(p.Stamp))
	binary.BigEndian.PutUint32(r[18:], uint32(p.Src))
	binary.BigEndian.PutUint32(r[22:], uint32(p.Dst))
	binary.BigEndian.PutUint32(r[26:], uint32(p.Relay))
	binary.BigEndian.PutUint16(r[30:], uint16(p.Channel))
	binary.BigEndian.PutUint16(r[32:], p.Flow)
	binary.BigEndian.PutUint32(r[34:], p.Seq)
	// r[38:41] hold the low 3 bytes of Size (16 MiB cap is plenty).
	r[38], r[39], r[40] = byte(p.Size>>16), byte(p.Size>>8), byte(p.Size)
	return append(b, r[:]...)
}

func decodePacket(r []byte) Packet {
	return Packet{
		Kind:    PacketKind(r[1]),
		At:      vclock.Time(binary.BigEndian.Uint64(r[2:])),
		Stamp:   vclock.Time(binary.BigEndian.Uint64(r[10:])),
		Src:     radio.NodeID(binary.BigEndian.Uint32(r[18:])),
		Dst:     radio.NodeID(binary.BigEndian.Uint32(r[22:])),
		Relay:   radio.NodeID(binary.BigEndian.Uint32(r[26:])),
		Channel: radio.ChannelID(binary.BigEndian.Uint16(r[30:])),
		Flow:    binary.BigEndian.Uint16(r[32:]),
		Seq:     binary.BigEndian.Uint32(r[34:]),
		Size:    uint32(r[38])<<16 | uint32(r[39])<<8 | uint32(r[40]),
	}
}

// recordAt returns the emulation time of record r.
func recordAt(r []byte) vclock.Time {
	if r[0] == 'P' {
		return vclock.Time(binary.BigEndian.Uint64(r[2:]))
	}
	return vclock.Time(binary.BigEndian.Uint64(r[sceneHead:]))
}

// recordLen returns the length of the row at the head of b. When b is
// too short to tell, it returns the length of a prefix that can — more
// than len(b). An unknown tag, or a scene row longer than any record
// the scene codec accepts, returns -1.
func recordLen(b []byte) int {
	switch {
	case len(b) == 0:
		return 1
	case b[0] == 'P':
		return packetLen
	case b[0] != 'S':
		return -1
	case len(b) < sceneHead:
		return sceneHead
	case binary.BigEndian.Uint32(b[1:]) > scene.MaxRecordLen:
		return -1
	}
	return sceneHead + int(binary.BigEndian.Uint32(b[1:]))
}

// countRecords returns how many whole records b starts with.
func countRecords(b []byte) int {
	c := 0
	for n := recordLen(b); n > 0 && n <= len(b); n = recordLen(b) {
		b, c = b[n:], c+1
	}
	return c
}

// LogWriter streams a recording to an underlying writer. Attached to a
// store, it receives every committed record as the store commits it.
// Safe for concurrent use.
type LogWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error // the first write error; the log takes nothing after it
}

// NewLogWriter writes the header to w and returns a writer. If w is
// also an io.Closer, Close will close it.
func NewLogWriter(w io.Writer) (*LogWriter, error) {
	if _, err := w.Write(header); err != nil {
		return nil, err
	}
	return &LogWriter{w: w}, nil
}

// write hands b to the underlying writer and returns how many bytes it
// took. After the first error every write fails, so a failing log ends
// in at most one torn record, which Load tolerates.
func (lw *LogWriter) write(b []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return 0, lw.err
	}
	n, err := lw.w.Write(b)
	lw.err = err
	return n, err
}

// failed returns the first write error, if any.
func (lw *LogWriter) failed() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.err
}

// Close closes the underlying writer when it is closable and returns
// the first write error, or else the close error.
func (lw *LogWriter) Close() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if c, ok := lw.w.(io.Closer); ok {
		if err := c.Close(); lw.err == nil {
			lw.err = err
		}
	}
	return lw.err
}

// Attach writes the store's records to lw and subscribes it to every
// later commit, so attaching mid-run is safe.
func (s *Store) Attach(lw *LogWriter) error {
	s.drain()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeAll(lw); err != nil {
		return err
	}
	s.sinks = append(s.sinks, lw)
	return nil
}

// Save writes the recording: the header, then every record.
func (s *Store) Save(w io.Writer) error {
	lw, err := NewLogWriter(w)
	if err != nil {
		return err
	}
	s.drain()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writeAll(lw)
}

// writeAll writes every committed record to lw; the caller holds s.mu.
func (s *Store) writeAll(lw *LogWriter) error {
	for _, seg := range s.segs {
		if _, err := lw.write(seg); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a recording — Save's output or a LogWriter's stream — into
// a fresh store. A truncated final row (crash artifact) is tolerated; a
// foreign or older-version header, an unknown tag, a scene row the
// scene codec refuses, and read errors other than end of input are not.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, maxRecordLen)
	h := make([]byte, len(header))
	if _, err := io.ReadFull(br, h); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadLog, err)
	}
	if !bytes.Equal(h, header) {
		return nil, fmt.Errorf("%w: header %q is not a version-3 recording", ErrBadLog, h)
	}
	s := NewStore()
	for want := 1; ; {
		b, err := br.Peek(want)
		if err != nil {
			return logEnd(s, err)
		}
		n := recordLen(b)
		switch {
		case n < 0:
			return nil, fmt.Errorf("%w: bad row with tag %q", ErrBadLog, b[0])
		case n > len(b):
			want = n
		default:
			if b[0] == 'S' {
				if _, err := scene.DecodeRecord(b[sceneHead:n]); err != nil {
					return nil, fmt.Errorf("%w: scene row: %w", ErrBadLog, err)
				}
			}
			s.commit(b, n)
			br.Discard(n) // peeked, so buffered: cannot fail
			want = 1
		}
	}
}

// logEnd settles a failed read after the header: end of input, clean or
// mid-record, is the end of the log (a crashed run's torn tail), and s
// holds every whole record before it. Any other error is the reader's —
// a disk or pipe failure must not pass for a shorter recording.
func logEnd(s *Store, err error) (*Store, error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return s, nil
	}
	return nil, fmt.Errorf("record: read log: %w", err)
}
