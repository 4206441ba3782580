package linkmodel

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

var _ rand.Source64 = (*Dice)(nil)

// keyed returns a rand.Rand over dice positioned for one verdict.
func keyed(seed int64, src, seq uint32, stamp int64, receiver uint32) *rand.Rand {
	var d Dice
	d.Key(PacketKey(seed, src, seq, stamp), receiver)
	return rand.New(&d)
}

func TestDiceIdenticalKeysIdenticalDraws(t *testing.T) {
	a, b := keyed(7, 3, 41, 1e9, 9), keyed(7, 3, 41, 1e9, 9)
	for i := 0; i < 64; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x vs %#x from identical keys", i, x, y)
		}
	}
	// Re-keying restarts the stream: the verdict does not depend on how
	// many draws the previous verdict took.
	var d Dice
	r := rand.New(&d)
	d.Key(PacketKey(7, 3, 41, 1e9), 9)
	first := r.Uint64()
	r.Uint64()
	d.Key(PacketKey(7, 3, 41, 1e9), 9)
	if again := r.Uint64(); again != first {
		t.Fatalf("re-keyed dice drew %#x, want %#x", again, first)
	}
}

// Every field of the key matters: changing any one of them gives an
// unrelated first draw.
func TestDiceEveryKeyFieldCounts(t *testing.T) {
	base := keyed(7, 3, 41, 1e9, 9).Uint64()
	for name, r := range map[string]*rand.Rand{
		"seed":     keyed(8, 3, 41, 1e9, 9),
		"src":      keyed(7, 4, 41, 1e9, 9),
		"seq":      keyed(7, 3, 42, 1e9, 9),
		"stamp":    keyed(7, 3, 41, 1e9+1, 9),
		"receiver": keyed(7, 3, 41, 1e9, 10),
	} {
		if r.Uint64() == base {
			t.Errorf("changing the %s left the first draw unchanged", name)
		}
	}
}

// Loss over consecutive sequence numbers — the keys a real sender
// produces — lands within 5σ of p, for each of a run of receivers.
func TestDiceLossRateConsecutiveSeq(t *testing.T) {
	const n = 100000
	for _, p := range []float64{0.01, 0.1, 0.3, 0.72} {
		m := Model{Loss: ConstantLoss{P: p}, Bandwidth: ConstantBandwidth{Bps: 1e6}, Delay: ConstantDelay{}}
		var d Dice
		r := rand.New(&d)
		for _, receiver := range []uint32{2, 3} {
			drops := 0
			for seq := uint32(1); seq <= n; seq++ {
				d.Key(PacketKey(1, 1, seq, int64(seq)*int64(time.Millisecond)), receiver)
				if m.Evaluate(0, 100, r).Drop {
					drops++
				}
			}
			sigma := math.Sqrt(n * p * (1 - p))
			if dev := math.Abs(float64(drops) - n*p); dev > 5*sigma {
				t.Errorf("p=%v receiver %d: %d drops of %d, %.1fσ from %v", p, receiver, drops, n, dev/sigma, n*p)
			}
		}
	}
}

// A retransmission that reuses a sequence number at a later stamp gets
// its own verdict: agreement with the original is p²+(1-p)², not 1.
func TestDiceRetransmissionIsIndependent(t *testing.T) {
	const n, p = 20000, 0.5
	m := Model{Loss: ConstantLoss{P: p}, Bandwidth: ConstantBandwidth{Bps: 1e6}, Delay: ConstantDelay{}}
	var d Dice
	r := rand.New(&d)
	agree := 0
	for seq := uint32(0); seq < n; seq++ {
		d.Key(PacketKey(1, 5, seq, 1e9), 6)
		first := m.Evaluate(0, 100, r).Drop
		d.Key(PacketKey(1, 5, seq, 1e9+int64(time.Millisecond)), 6)
		if m.Evaluate(0, 100, r).Drop == first {
			agree++
		}
	}
	want := p*p + (1-p)*(1-p)
	sigma := math.Sqrt(n * want * (1 - want))
	if dev := math.Abs(float64(agree) - n*want); dev > 5*sigma {
		t.Errorf("retransmissions agreed %d of %d times, want ≈ %.0f", agree, n, n*want)
	}
}

// Random delays drawn from keyed dice have the distribution's mean and
// spread.
func TestDiceDelayMoments(t *testing.T) {
	const n = 100000
	moments := func(dm DelayModel) (mean, std float64) {
		var d Dice
		r := rand.New(&d)
		var sum, sq float64
		for seq := uint32(0); seq < n; seq++ {
			d.Key(PacketKey(3, 1, seq, int64(seq)), 2)
			x := float64(dm.Delay(r))
			sum += x
			sq += x * x
		}
		mean = sum / n
		return mean, math.Sqrt(sq/n - mean*mean)
	}
	u := UniformDelay{Min: time.Millisecond, Max: 5 * time.Millisecond}
	wantMean, wantStd := float64(3*time.Millisecond), float64(4*time.Millisecond)/math.Sqrt(12)
	mean, std := moments(u)
	if math.Abs(mean-wantMean) > 5*wantStd/math.Sqrt(n) {
		t.Errorf("UniformDelay mean %v, want %v", time.Duration(mean), time.Duration(wantMean))
	}
	if math.Abs(std-wantStd) > 0.02*wantStd {
		t.Errorf("UniformDelay std %v, want %v", time.Duration(std), time.Duration(wantStd))
	}
	// Mean five standard deviations above zero: the truncation at zero
	// never bites, so the sample moments are the normal's.
	nd := NormalDelay{Mean: 10 * time.Millisecond, Std: 2 * time.Millisecond}
	mean, std = moments(nd)
	if math.Abs(mean-float64(nd.Mean)) > 5*float64(nd.Std)/math.Sqrt(n) {
		t.Errorf("NormalDelay mean %v, want %v", time.Duration(mean), nd.Mean)
	}
	if math.Abs(std-float64(nd.Std)) > 0.02*float64(nd.Std) {
		t.Errorf("NormalDelay std %v, want %v", time.Duration(std), nd.Std)
	}
}

var decisionSink Decision

// BenchmarkDiceKeyNoDraw is one verdict of the default model, which
// draws nothing, keyed per receiver as the server keys it.
func BenchmarkDiceKeyNoDraw(b *testing.B) {
	m := Default()
	var d Dice
	r := rand.New(&d)
	pk := PacketKey(1, 1, 1, 1)
	for i := 0; i < b.N; i++ {
		d.Key(pk, uint32(i))
		decisionSink = m.Evaluate(10, 100, r)
	}
}
