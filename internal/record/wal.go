package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Streaming log ("WAL") persistence: where Save writes one consistent
// snapshot at the end of a run, a LogWriter appends each record the
// moment it is recorded, so a crash or kill loses at most the buffered
// tail. Format:
//
//	"PoEL" magic, uint16 version, then tagged records:
//	  'P' + packet record (fixed 40 bytes)
//	  'S' + scene record  (fixed 28 bytes + 2 strings)
//
// LoadLog tolerates a truncated final record — exactly what a crashed
// emulation run leaves behind.

var walMagic = [4]byte{'P', 'o', 'E', 'L'}

const walVersion = 1

// ErrBadLog reports a corrupt or foreign log stream.
var ErrBadLog = errors.New("record: bad log")

// LogWriter streams records to an underlying writer. Safe for
// concurrent use — the emulator's recording goroutines append from
// several places.
type LogWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
	c  io.Closer // optional
}

// NewLogWriter writes the header and returns a writer. If w is also an
// io.Closer, Close will close it.
func NewLogWriter(w io.Writer) (*LogWriter, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(walMagic[:]); err != nil {
		return nil, err
	}
	if err := binary.Write(bw, binary.BigEndian, uint16(walVersion)); err != nil {
		return nil, err
	}
	lw := &LogWriter{bw: bw}
	if c, ok := w.(io.Closer); ok {
		lw.c = c
	}
	return lw, nil
}

// Packet appends one packet record.
func (lw *LogWriter) Packet(p Packet) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if err := lw.bw.WriteByte('P'); err != nil {
		return err
	}
	return writePacket(lw.bw, &p)
}

// packetBatch appends a batch of packet records under one lock
// acquisition — the sink half of the store's sharded commit path.
func (lw *LogWriter) packetBatch(ps []Packet) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	for i := range ps {
		if err := lw.bw.WriteByte('P'); err != nil {
			return err
		}
		if err := writePacket(lw.bw, &ps[i]); err != nil {
			return err
		}
	}
	return nil
}

// Scene appends one scene record.
func (lw *LogWriter) Scene(e Scene) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if err := lw.bw.WriteByte('S'); err != nil {
		return err
	}
	return writeScene(lw.bw, &e)
}

// Flush pushes buffered records to the underlying writer.
func (lw *LogWriter) Flush() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.bw.Flush()
}

// Close flushes and closes the underlying writer when it is closable.
func (lw *LogWriter) Close() error {
	if err := lw.Flush(); err != nil {
		return err
	}
	if lw.c != nil {
		return lw.c.Close()
	}
	return nil
}

// Attach subscribes a LogWriter to the store: every subsequent
// AddPacket/AddScene is also streamed to the log. Existing contents are
// written out first, so attaching mid-run is safe.
func (s *Store) Attach(lw *LogWriter) error {
	s.drain()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.packets {
		if err := lw.Packet(s.packets[i]); err != nil {
			return err
		}
	}
	for i := range s.scenes {
		if err := lw.Scene(s.scenes[i]); err != nil {
			return err
		}
	}
	s.sinks = append(s.sinks, lw)
	return nil
}

// LoadLog reads a streamed log into a fresh store. A truncated trailing
// record (crash artifact) is tolerated; corrupt headers and read errors
// other than end of input are not.
func LoadLog(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadLog, err)
	}
	if m != walMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadLog)
	}
	var ver uint16
	if err := binary.Read(br, binary.BigEndian, &ver); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadLog, err)
	}
	if ver != walVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadLog, ver)
	}
	s := NewStore()
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return logEnd(s, err)
		}
		switch tag {
		case 'P':
			var p Packet
			if err := readPacket(br, &p); err != nil {
				return logEnd(s, err)
			}
			s.packets = append(s.packets, p)
		case 'S':
			var e Scene
			if err := readScene(br, &e); err != nil {
				return logEnd(s, err)
			}
			s.scenes = append(s.scenes, e)
		default:
			return nil, fmt.Errorf("%w: unknown tag %q", ErrBadLog, tag)
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

// LoadAuto detects whether r holds a snapshot (Save) or a streamed log
// (LogWriter) and loads accordingly.
func LoadAuto(r io.ReadSeeker) (*Store, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	switch m {
	case magic:
		return Load(r)
	case walMagic:
		return LoadLog(r)
	default:
		return nil, fmt.Errorf("%w: unrecognized magic %q", ErrBadSnapshot, m[:])
	}
}
