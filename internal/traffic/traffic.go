// Package traffic generates application workloads for emulation runs.
// The paper's performance evaluation (§6.2) drives a 4 Mb/s CBR flow
// through the relay scenario; CBR, Poisson and on/off bursty patterns
// are provided, all paced against the emulation clock so compressed-
// time runs generate the same packet schedule as real-time ones.
package traffic

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Pattern yields successive inter-packet gaps.
type Pattern interface {
	// NextGap returns the time until the next packet.
	NextGap(rng *rand.Rand) time.Duration
}

// CBR is constant bit rate: fixed gaps sized so that PacketBits arrive
// at RateBps.
type CBR struct {
	RateBps    float64
	PacketSize int // bytes on the wire (the emulated packet size)
}

// NextGap implements Pattern.
func (c CBR) NextGap(*rand.Rand) time.Duration {
	if c.RateBps <= 0 {
		return time.Second
	}
	bits := float64(c.PacketSize) * 8
	return time.Duration(bits / c.RateBps * float64(time.Second))
}

// PacketsPerSecond returns the CBR packet rate.
func (c CBR) PacketsPerSecond() float64 {
	g := c.NextGap(nil)
	if g <= 0 {
		return 0
	}
	return float64(time.Second) / float64(g)
}

// Poisson spaces packets with exponentially distributed gaps around
// MeanGap.
type Poisson struct {
	MeanGap time.Duration
}

// NextGap implements Pattern.
func (p Poisson) NextGap(rng *rand.Rand) time.Duration {
	if p.MeanGap <= 0 {
		return time.Second
	}
	return time.Duration(rng.ExpFloat64() * float64(p.MeanGap))
}

// Bursty alternates On periods of CBR traffic with silent Off periods —
// a crude voice/telemetry pattern.
type Bursty struct {
	On, Off time.Duration
	Gap     time.Duration // inter-packet gap while on

	inBurst   bool
	remaining time.Duration
}

// NextGap implements Pattern.
func (b *Bursty) NextGap(*rand.Rand) time.Duration {
	if b.Gap <= 0 {
		b.Gap = 10 * time.Millisecond
	}
	if !b.inBurst {
		b.inBurst = true
		b.remaining = b.On
		return b.Off // silence before the burst opens
	}
	if b.remaining <= b.Gap {
		b.inBurst = false
		return b.Gap
	}
	b.remaining -= b.Gap
	return b.Gap
}

// SendFunc ships one generated packet. seq increments from 1.
type SendFunc func(seq uint32, payload []byte) error

// ErrStopped is returned from Pump.Run when stopped early.
var ErrStopped = errors.New("traffic: pump stopped")

// Pump paces packets from a Pattern onto a SendFunc against the
// emulation clock.
type Pump struct {
	clk     vclock.Clock
	w       vclock.Waiter // woken only by Stop
	stopped atomic.Bool
	pattern Pattern
	size    int
	send    SendFunc
	rng     *rand.Rand
}

// NewPump builds a pump. size is the payload size per packet.
func NewPump(clk vclock.WaitClock, pattern Pattern, size int, send SendFunc, seed int64) *Pump {
	if size < 0 {
		size = 0
	}
	return &Pump{
		clk:     clk,
		w:       vclock.NewWaiter(clk),
		pattern: pattern,
		size:    size,
		send:    send,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Run sends packets until emulation time `until`, then returns the
// count. Send errors abort the run.
func (p *Pump) Run(until vclock.Time) (int, error) {
	payload := make([]byte, p.size)
	next := p.clk.Now()
	for sent := 0; ; {
		gap := p.pattern.NextGap(p.rng)
		if gap < 0 {
			gap = 0
		}
		next = next.Add(gap)
		if next > until {
			return sent, nil
		}
		if p.stopped.Load() || !p.w.Wait(next) {
			return sent, ErrStopped
		}
		sent++
		if err := p.send(uint32(sent), payload); err != nil {
			return sent, err
		}
	}
}

// Stop aborts a running pump. Idempotent.
func (p *Pump) Stop() {
	p.stopped.Store(true)
	p.w.Wake()
}
