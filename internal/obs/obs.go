// Package obs is PoEm's unified observability layer: a dependency-free
// metrics registry (atomic counters, callback gauges, lock-free
// log₂-bucketed latency histograms) and an HTTP debug surface
// (http.go). Events — sampled packet lifecycles among them — go to the
// fidelity monitor's flight recorder (internal/obs/fidelity).
//
// The paper's second claim — accurate real-time traffic recording even
// when the server ingress is the bottleneck — is only testable if the
// emulator publishes its own overhead (Lochin et al.; Scussel et al.'s
// real-time scheduler measures deadline slack continuously for the same
// reason). Every subsystem therefore registers its counters here and
// the hot paths record sampled stage latencies, so a run always carries
// its own overhead curves next to its results.
//
// Design constraints, in order:
//
//  1. The steady-state forwarding path must stay zero-alloc and within
//     a few ns of uninstrumented: counters are plain atomic adds,
//     histogram buckets are preallocated arrays (no interface boxing),
//     and every timed operation hides behind a sampling gate.
//  2. No dependencies: obs imports only the standard library, so every
//     package (vclock included) can register metrics without cycles.
//  3. Scrapes never block recorders: readers snapshot atomics; the only
//     mutex guards registration, which is cold.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled builds a metric name carrying one Prometheus-style label,
// e.g. Labeled("poem_shard_scheduled", "shard", "3") →
// `poem_shard_scheduled{shard="3"}`. The registry treats the result as
// an opaque name — each label value is its own instrument — but
// WritePrometheus recognises the brace form, emitting the HELP/TYPE
// header once per family and the samples with their labels intact. Use
// it for small, fixed cardinalities (shard indices, not packet fields).
// The value is escaped per the text exposition format, so a `"`, `\`
// or newline in it cannot corrupt the /metrics output.
func Labeled(name, key, value string) string {
	return name + "{" + key + "=\"" + escapeLabelValue(value) + "\"}"
}

// escapeLabelValue applies the exposition format's label-value escaping
// (backslash, double-quote and line feed; everything else is literal).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// familyName strips a Labeled suffix: the metric family the HELP/TYPE
// exposition header names.
func familyName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter is a monotonically increasing metric. The zero value is
// usable, but counters are normally obtained from Registry.Counter so
// they appear on /metrics.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindCounterFunc
	kindGauge
	kindHistogram
)

// metric is one registered entry. Exactly one of the payload fields is
// set, per kind. Boxing here is fine: registration and scraping are
// cold paths; the hot path holds the *Counter / *Histogram directly.
type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	counterFn  func() uint64
	gaugeFn    func() float64
	hist       *Histogram
}

// Registry is a named set of metrics. All methods are safe for
// concurrent use. Registration is idempotent: asking for a name that
// already exists returns the existing instrument (same-kind) so several
// subsystems — or several servers sharing one registry — can register
// the same metric without coordination.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric // insertion order; Names sorts for output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// lookup returns the existing entry for name, checking the kind, or
// creates a fresh one via mk. Kind mismatches panic: two subsystems
// claiming one name for different instrument types is a programming
// error that silent coexistence would hide until the first scrape.
func (r *Registry) lookup(name, help string, kind metricKind, mk func(*metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered with a different kind")
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	mk(m)
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, help, kindCounter, func(m *metric) { m.counter = &Counter{} })
	return m.counter
}

// CounterFunc registers a counter whose value is computed at scrape
// time — for subsystems that already maintain their own atomic (a
// migration aid) or derive the count from internal state. Re-registering
// replaces the callback (last writer wins), so a restarted subsystem
// can rebind its metric.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	m := r.lookup(name, help, kindCounterFunc, func(m *metric) {})
	r.mu.Lock()
	m.counterFn = fn
	r.mu.Unlock()
}

// Gauge registers a gauge backed by a callback, evaluated at scrape
// time. Callbacks must not call back into the registry (deadlock) and
// should be cheap — they run on every /metrics request. Re-registering
// replaces the callback.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	m := r.lookup(name, help, kindGauge, func(m *metric) {})
	r.mu.Lock()
	m.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram registers (or finds) a log₂-bucketed histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.lookup(name, help, kindHistogram, func(m *metric) { m.hist = NewHistogram() })
	return m.hist
}

// FindHistogram returns the histogram registered under name, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok && m.kind == kindHistogram {
		return m.hist
	}
	return nil
}

// Names returns all registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// snapshot copies the entry list so scraping iterates without holding
// the registration lock (gauge callbacks may take subsystem locks).
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.ordered))
	copy(out, r.ordered)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
