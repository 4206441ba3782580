package record

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/radio"
	"repro/internal/vclock"
)

// The recording format. The store's segments, Save's output and an
// attached LogWriter's stream are the same bytes:
//
//	"PoEL" magic, uint16 version 2, then tagged records:
//	  'P' + packet record (fixed 40 bytes)
//	  'S' + scene record  (At, Node, X and Y as float64 bits: 28 bytes,
//	        then Op and Detail, each a uint16 length and its bytes)
//
// There are no counts: a recording ends where its records end, and Load
// tolerates a truncated final record — exactly what a crashed emulation
// run leaves behind.

// header opens every recording. Version 1 stored scene coordinates as
// integer millimetres; Load rejects it.
var header = []byte{'P', 'o', 'E', 'L', 0, 2}

const (
	packetLen    = 1 + 40 // tag + packet record
	sceneFixed   = 1 + 28 // tag + scene record up to its strings
	maxRecordLen = sceneFixed + 2*(2+math.MaxUint16)
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

// appendScene appends e's record to b; Op and Detail are cut to 64 KiB.
func appendScene(b []byte, e *Scene) []byte {
	b = append(b, 'S')
	b = binary.BigEndian.AppendUint64(b, uint64(e.At))
	b = binary.BigEndian.AppendUint32(b, uint32(e.Node))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.X))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.Y))
	for _, str := range [2]string{e.Op, e.Detail} {
		str = str[:min(len(str), math.MaxUint16)]
		b = binary.BigEndian.AppendUint16(b, uint16(len(str)))
		b = append(b, str...)
	}
	return b
}

func decodeScene(r []byte) Scene {
	e := Scene{
		At:   vclock.Time(binary.BigEndian.Uint64(r[1:])),
		Node: radio.NodeID(binary.BigEndian.Uint32(r[9:])),
		X:    math.Float64frombits(binary.BigEndian.Uint64(r[13:])),
		Y:    math.Float64frombits(binary.BigEndian.Uint64(r[21:])),
	}
	r = r[sceneFixed:]
	for _, str := range [2]*string{&e.Op, &e.Detail} {
		n := 2 + int(binary.BigEndian.Uint16(r))
		*str, r = string(r[2:n]), r[n:]
	}
	return e
}

// recordAt returns the emulation time of record r.
func recordAt(r []byte) vclock.Time {
	if r[0] == 'P' {
		return vclock.Time(binary.BigEndian.Uint64(r[2:]))
	}
	return vclock.Time(binary.BigEndian.Uint64(r[1:]))
}

// recordLen returns the length of the record at the head of b. When b
// is too short to tell, it returns the length of a prefix that can —
// more than len(b). An unknown tag returns -1.
func recordLen(b []byte) int {
	if len(b) == 0 {
		return 1
	}
	switch b[0] {
	case 'P':
		return packetLen
	case 'S':
		n := sceneFixed
		for range 2 {
			if len(b) < n+2 {
				return n + 2
			}
			n += 2 + int(binary.BigEndian.Uint16(b[n:]))
		}
		return n
	}
	return -1
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
// a fresh store. A truncated final record (crash artifact) is
// tolerated; a foreign or older-version header, an unknown tag, and
// read errors other than end of input are not.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, maxRecordLen)
	h := make([]byte, len(header))
	if _, err := io.ReadFull(br, h); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadLog, err)
	}
	if !bytes.Equal(h, header) {
		return nil, fmt.Errorf("%w: header %q is not a version-2 recording", ErrBadLog, h)
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
			return nil, fmt.Errorf("%w: unknown tag %q", ErrBadLog, b[0])
		case n > len(b):
			want = n
		default:
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
