package vclock

import "sync"

// RateSynced extends the Figure 5 scheme with drift compensation. The
// paper leaves the resynchronization frequency to the user because a
// client whose oscillator runs fast or slow walks away from the server
// between syncs ("client homogeneity"). RateSynced fits a line through
// the last several (local, server) sample pairs by least squares,
// estimating both offset *and* rate, so a steadily drifting client
// stays accurate long after its last exchange.
//
// With w samples spanning time T and per-sample noise ε, the rate
// estimate error is O(ε/T); two well-separated samples already beat a
// pure offset under drift ≥ ε/T per unit time.
type RateSynced struct {
	local Clock

	mu      sync.Mutex
	samples []ratePair
	window  int
	// fit: serverTime ≈ base + rate·(localTime − origin)
	origin  Time
	base    float64
	rate    float64
	haveFit bool
}

type ratePair struct {
	local  Time
	server Time
}

// NewRateSynced wraps the local clock. window bounds how many samples
// the fit uses (≥ 2; default 8).
func NewRateSynced(local Clock, window int) *RateSynced {
	if window < 2 {
		window = 8
	}
	return &RateSynced{local: local, window: window, rate: 1}
}

// AddSample records one synchronization result: at local time
// sample.TC4 the server clock was estimated as tc4 + sample.Offset().
func (c *RateSynced) AddSample(s Sample) {
	c.addPoint(s.TC4, s.TC4.Add(s.Offset()))
}

// addPoint records a raw (local, server) correspondence.
func (c *RateSynced) addPoint(local, server Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, ratePair{local: local, server: server})
	if len(c.samples) > c.window {
		c.samples = c.samples[len(c.samples)-c.window:]
	}
	c.refitLocked()
}

// refitLocked runs the least-squares fit over the sample window.
func (c *RateSynced) refitLocked() {
	n := len(c.samples)
	if n == 0 {
		c.haveFit = false
		return
	}
	c.origin = c.samples[0].local
	if n == 1 {
		c.base = float64(c.samples[0].server)
		c.rate = 1
		c.haveFit = true
		return
	}
	// x = local − origin, y = server; fit y = base + rate·x.
	var sx, sy, sxx, sxy float64
	for _, p := range c.samples {
		x := float64(p.local - c.origin)
		y := float64(p.server)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		// All samples at one instant: fall back to the mean offset.
		c.base = sy / fn
		c.rate = 1
		c.haveFit = true
		return
	}
	c.rate = (fn*sxy - sx*sy) / den
	c.base = (sy - c.rate*sx) / fn
	// A wildly implausible rate means corrupt samples; clamp to ±1 %
	// (real oscillators are within ~100 ppm).
	if c.rate < 0.99 || c.rate > 1.01 {
		if c.rate < 0.99 {
			c.rate = 0.99
		} else {
			c.rate = 1.01
		}
	}
	c.haveFit = true
}

// Now returns the drift-compensated emulation time.
func (c *RateSynced) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	local := c.local.Now()
	if !c.haveFit {
		return local
	}
	return Time(c.base + c.rate*float64(local-c.origin))
}

// Resync runs one Figure 5 exchange through ex and folds the result
// into the fit.
func (c *RateSynced) Resync(ex Exchanger, rounds int) (Sample, error) {
	_, sample, err := Synchronize(c.local, ex, rounds)
	if err != nil {
		return Sample{}, err
	}
	c.AddSample(sample)
	return sample, nil
}
