package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 9, 1, 1, 5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	// Every value falls in the bucket whose bounds contain it, and
	// consecutive buckets abut.
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 30, 1<<39 + 12345} {
		lo, w := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d landed in bucket [%v, %v)", v, lo, lo+w)
		}
		if v >= histSub && w/lo > 1.0/histSub {
			t.Errorf("bucket of %d is %v wide at %v: more than 1/%d", v, w, lo, histSub)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo0, w0 := histBounds(i - 1)
		if lo1, _ := histBounds(i); lo0+w0 != lo1 {
			t.Fatalf("bucket %d ends at %v, bucket %d starts at %v", i-1, lo0+w0, i, lo1)
		}
	}
	if histIndex(-5) != 0 || histIndex(math.MaxInt64) != histBuckets-1 {
		t.Error("out-of-range values must clamp to the end buckets")
	}
}

func fill(values ...int64) *histSnap {
	var h hist
	for _, v := range values {
		h.observe(v)
	}
	return h.snapshot()
}

func TestHistQuantile(t *testing.T) {
	// 1..50: exact buckets, so a quantile is the value at that rank to
	// within the one-unit bucket.
	var vals []int64
	for v := int64(1); v <= 50; v++ {
		vals = append(vals, v)
	}
	s := fill(vals...)
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 25.5}, {0.99, 49.51}, {1, 50}} {
		if got := s.quantile(c.q); math.Abs(got-c.want) > 1 {
			t.Errorf("quantile(%v) of 1..50 = %v, want %v ± 1", c.q, got, c.want)
		}
	}
	// Large values: within the bucket's 1.6 %.
	s = fill(1_000_000, 2_000_000, 3_000_000, 4_000_000, 100_000_000)
	if got := s.quantile(0.5); math.Abs(got-3_000_000)/3_000_000 > 0.016 {
		t.Errorf("median of {1,2,3,4,100} ms = %v", got)
	}
	if got := s.quantile(1); math.Abs(got-100_000_000)/100_000_000 > 0.016 {
		t.Errorf("max of {1,2,3,4,100} ms = %v", got)
	}
	if got := (&histSnap{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	if got := s.shareAbove(50_000_000); got != 0.2 {
		t.Errorf("shareAbove(50 ms) = %v, want 0.2", got)
	}
}

func TestLatenessWindows(t *testing.T) {
	// Six windows, one of them empty and one holding a stall: the figure
	// is the median of the windows' own p99s — the stalled window spoils
	// itself, not the result — while the whole-run p99 reads the stall.
	// More windows than histograms, so the rotation is exercised too.
	m := &meter{}
	windows := []int64{10, 20, 0, 1000, 30, 40} // every sample of a window has this value; 0 = no samples
	if len(windows) <= latRing {
		t.Fatal("the test must reuse a histogram")
	}
	for i, v := range windows {
		m.win.Store(int32(i))
		for k := 0; v != 0 && k < 200; k++ {
			m.lateness[m.win.Load()%latRing].observe(v)
		}
		if i > 0 {
			m.closeWindow(i - 1)
		}
	}
	m.closeWindow(len(windows) - 1)
	if len(m.winP99) != 5 {
		t.Fatalf("%d windows counted, want 5 (the empty one skipped)", len(m.winP99))
	}
	if got := m.latenessP99(); math.Abs(got-30) > 1 {
		t.Errorf("windowed p99 = %v, want 30, the median of 10 20 30 40 1000", got)
	}
	if got := m.all.quantile(0.99); math.Abs(got-1000)/1000 > 0.016 {
		t.Errorf("whole-run p99 = %v, want 1000", got)
	}
	if m.all.total != 1000 {
		t.Errorf("whole run holds %d samples, want 1000", m.all.total)
	}
	if got := (&meter{}).latenessP99(); got != 0 {
		t.Errorf("no windows = %v, want 0", got)
	}
}

func TestFlowWindow(t *testing.T) {
	var a, b atomic.Uint32
	fw := newFlowWindow(4, []*atomic.Uint32{&a, &b}, nil)
	stop := make(chan struct{})
	for seq := uint32(1); seq <= 4; seq++ {
		if !fw.acquire(seq, time.Minute, stop) {
			t.Fatalf("packet %d refused inside an empty window", seq)
		}
	}
	// Packet 5 needs every receiver to have heard packet 1; a hears it at
	// once, b only later: the slowest receiver gates the window.
	a.Store(4)
	got := make(chan bool)
	go func() { got <- fw.acquire(5, time.Minute, stop) }()
	select {
	case <-got:
		t.Fatal("window opened while receiver b had heard nothing")
	case <-time.After(20 * time.Millisecond):
	}
	b.Store(1)
	if !<-got {
		t.Fatal("window stayed shut after the slowest receiver advanced")
	}
	if fw.reclaimed != 0 {
		t.Fatalf("reclaimed %d without a timeout", fw.reclaimed)
	}

	// Reclaim: nobody advances; after the wait the window is forced
	// forward by one packet and the loss is counted.
	if !fw.acquire(6, 10*time.Millisecond, stop) {
		t.Fatal("reclaim did not let the sender go on")
	}
	if fw.reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", fw.reclaimed)
	}

	// Stop wins over waiting.
	close(stop)
	if fw.acquire(99, time.Minute, stop) {
		t.Fatal("acquire succeeded after stop")
	}
}

func TestFlowWindowMembership(t *testing.T) {
	var stay, leave, join atomic.Uint32
	members := []*atomic.Uint32{&stay, &leave}
	fw := newFlowWindow(2, members, func() []*atomic.Uint32 { return members })
	stop := make(chan struct{})
	stay.Store(10)
	leave.Store(10)
	for seq := uint32(11); seq <= 12; seq++ {
		if !fw.acquire(seq, time.Minute, stop) {
			t.Fatal("refused inside the window")
		}
	}
	// leave walks out of range and never hears 11; join walks in having
	// heard nothing. After the refresh neither may stall the sender.
	members = []*atomic.Uint32{&stay, &join}
	stay.Store(12)
	if !fw.acquire(13, time.Minute, stop) {
		t.Fatal("a departed or a newly arrived receiver stalled the window")
	}
	if fw.reclaimed != 0 {
		t.Fatalf("membership change cost %d reclaims", fw.reclaimed)
	}
}

func TestFlowOrder(t *testing.T) {
	type arrival struct {
		seq  uint32
		size int
		due  int64
		ok   bool
	}
	for name, seq := range map[string][]arrival{
		"in order":                  {{1, 64, 100, true}, {2, 64, 200, true}, {3, 64, 300, true}},
		"gaps are loss, not error":  {{1, 64, 100, true}, {5, 64, 500, true}, {9, 64, 900, true}},
		"duplicate":                 {{1, 64, 100, true}, {2, 64, 200, true}, {2, 64, 200, false}},
		"old duplicate":             {{1, 64, 100, true}, {2, 64, 200, true}, {3, 64, 300, true}, {1, 64, 100, false}},
		"equal sizes overtaken":     {{2, 64, 200, true}, {1, 64, 100, false}},
		"small overtakes large":     {{2, 64, 150, true}, {1, 4096, 400, true}, {3, 64, 450, true}},
		"large overtakes small":     {{2, 4096, 500, true}, {1, 64, 100, false}},
		"overtaker due no earlier":  {{2, 64, 400, true}, {1, 4096, 400, false}},
		"floored late one is fine":  {{1, 4096, 400, true}, {2, 64, 150, true}},
		"unknown size":              {{1, 100, 100, false}},
		"two overtakers, one legal": {{3, 64, 250, true}, {2, 4096, 600, true}, {1, 4096, 500, false}},
	} {
		o := newFlowOrder([]int{64, 4096})
		for i, a := range seq {
			if got := o.admit(a.seq, a.size, a.due); got != a.ok {
				t.Errorf("%s: arrival %d (seq %d) admitted=%v, want %v", name, i, a.seq, got, a.ok)
			}
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range workloads {
		qw, _ := quick(w)
		a, err := generate(qw, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, _ := generate(qw, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different inputs", w.Name)
		}
		c, _ := generate(qw, 8)
		if reflect.DeepEqual(a.Flows, c.Flows) || a.ServerSeed == c.ServerSeed {
			t.Errorf("%s: different seeds gave the same flows or dice", w.Name)
		}
		if w.Churn && (len(a.Ops) == 0 || len(a.Walkers) == 0 || reflect.DeepEqual(a.Ops, c.Ops)) {
			t.Errorf("%s: operator ops missing or not seeded", w.Name)
		}
		// Nobody the scene moves may be a sender or a receiver.
		special := map[uint32]bool{}
		for _, f := range a.Flows {
			special[uint32(f.Src)] = true
			for _, d := range f.Dsts {
				special[uint32(d)] = true
			}
			if want := max(qw.Fan, 1); len(f.Dsts) != want {
				t.Errorf("%s: flow has %d receivers, want %d", w.Name, len(f.Dsts), want)
			}
		}
		for _, id := range a.Walkers {
			if special[uint32(id)] {
				t.Errorf("%s: walker %d is a flow endpoint", w.Name, id)
			}
		}
		for _, op := range a.Ops {
			if special[uint32(op.Node)] {
				t.Errorf("%s: operator touches flow endpoint %d", w.Name, op.Node)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b, bound float64
		better      string
		want        string
	}{
		{100, 105, 0.10, "lower", "ok"},
		{100, 111, 0.10, "lower", "worse"},
		{100, 80, 0.10, "lower", "better"},
		{100, 95, 0.10, "higher", "ok"},
		{100, 89, 0.10, "higher", "worse"},
		{100, 120, 0.10, "higher", "better"},
		{0, 0, 0, "lower", "ok"},
		{0, 0.001, 0, "lower", "worse"}, // failed_ratio: any rise
	} {
		if got, _ := verdict(c.a, c.b, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v → %v, bound %v, %s) = %s, want %s", c.a, c.b, c.bound, c.better, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesSpec: the contract file names exactly the
// metrics and workloads this binary emits (regenerate it with -spec).
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(runSeconds); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of date: run `go -C bench run . -spec > BENCHMARK.json`\n--- have ---\n%s--- want ---\n%s", got, want)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestQuickSmoke runs all five workloads and the gateway probe, both
// passes, in this process on tiny populations. It asserts correctness
// and completeness only — never a timing.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	out := t.TempDir()
	if err := parentMain(options{seed: 3, seconds: 1, trace: -1, quick: true, out: out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := file.Workloads[w.Name]
		if wr == nil {
			t.Errorf("%s: missing from result.json", w.Name)
			continue
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, wr.Correct, wr.Failed, wr.Attempted)
		}
		for _, c := range wr.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		for _, m := range endToEnd {
			if v, ok := wr.EndToEnd[m.Name]; !ok || v.Value <= 0 || math.IsInf(v.Value, 0) || math.IsNaN(v.Value) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range perLayer {
			if v, ok := wr.PerLayer[m.Name]; !ok || math.IsInf(v.Value, 0) || math.IsNaN(v.Value) || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// A file compares clean against itself, in the format -compare reads.
	var buf bytes.Buffer
	path := filepath.Join(out, "result.json")
	if err := compareFiles(&buf, path, path); err != nil {
		t.Errorf("self-compare: %v\n%s", err, buf.String())
	}
}
