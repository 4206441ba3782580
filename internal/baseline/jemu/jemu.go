// Package jemu is the JEmu-style centralized emulator the paper's §2.1
// compares against — the baseline of the Figure 2 stamping-error claim.
//
// JEmu's architecture routes all traffic through a central server that
// is also the only place packets get time-stamped. Because the server
// has one incoming interface, simultaneous sends from several clients
// are received serially, and the serialization smears their timestamps
// apart (Figure 2). Statistically this turns into loss-rate and delay
// curves that lag and distort the truth whenever the server saturates.
//
// The baseline is that interface and nothing else: SerialInterface
// wraps the listener a stock core.Server serves, so the forwarding
// pipeline, scene machinery and transport are PoEm's own and E4
// measures the stamping architecture, not incidental implementation
// differences. The server's receive instant (record.Packet.At) is the
// serial stamp; the client's parallel stamp rides in the packet.
package jemu

import (
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// SerialInterface wraps l so that every packet arriving on any accepted
// connection crosses one shared incoming interface: a Recv that yields
// a *wire.Data holds a listener-wide mutex for perPacket of wall time
// (the NIC/CPU cost of one packet) before returning it, so concurrent
// senders are received one after another. Control messages (Hello,
// SyncReq, …) pass untouched. A slot is not interruptible: a Close
// during one lets the Recv finish its perPacket and return the packet,
// and the next Recv reports the closed connection's error.
func SerialInterface(l transport.Listener, perPacket time.Duration) transport.Listener {
	return &serialListener{Listener: l, perPacket: perPacket}
}

type serialListener struct {
	transport.Listener
	perPacket time.Duration
	mu        sync.Mutex // the single incoming interface
}

func (l *serialListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serialConn{Conn: c, l: l}, nil
}

type serialConn struct {
	transport.Conn
	l *serialListener
}

func (c *serialConn) Recv() (wire.Msg, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if _, ok := m.(*wire.Data); ok {
		c.l.mu.Lock()
		time.Sleep(c.l.perPacket)
		c.l.mu.Unlock()
	}
	return m, nil
}

// Features is the Table 1 row for JEmu.
func Features() map[string]bool {
	return map[string]bool{
		"real-time scene construction": true,  // centralized server, arbitrary live scenes
		"real-time traffic recording":  false, // serial server-side stamping
		"multi-radio environment":      false,
		"post-emulation replay":        false,
	}
}
