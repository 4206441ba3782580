package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRegistryIdempotentAndSorted(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("b_total", "")
	c2 := reg.Counter("b_total", "")
	if c1 != c2 {
		t.Error("Counter not idempotent")
	}
	h1 := reg.Histogram("a_ns", "")
	if reg.Histogram("a_ns", "") != h1 {
		t.Error("Histogram not idempotent")
	}
	if reg.FindHistogram("a_ns") != h1 {
		t.Error("FindHistogram missed")
	}
	if reg.FindHistogram("b_total") != nil {
		t.Error("FindHistogram matched a counter")
	}
	reg.Gauge("c_gauge", "", func() float64 { return 1 })
	names := reg.Names()
	want := []string{"a_ns", "b_total", "c_gauge"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Counter("a_ns", "")
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("poem_test_total", "a test counter").Add(7)
	reg.Gauge("poem_test_gauge", "a test gauge", func() float64 { return 2.5 })
	reg.CounterFunc("poem_test_fn_total", "", func() uint64 { return 9 })
	h := reg.Histogram("poem_test_ns", "a test histogram")
	h.Observe(3 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE poem_test_total counter",
		"poem_test_total 7",
		"poem_test_gauge 2.5",
		"poem_test_fn_total 9",
		"# TYPE poem_test_ns histogram",
		`poem_test_ns_bucket{le="+Inf"} 2`,
		"poem_test_ns_sum 103",
		"poem_test_ns_count 2",
		"poem_test_ns_p50 ",
		"poem_test_ns_p99 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN in output:\n%s", out)
	}
	// An empty histogram still exposes count/sum/quantiles (0, not NaN).
	reg2 := NewRegistry()
	reg2.Histogram("empty_ns", "")
	b.Reset()
	reg2.WritePrometheus(&b)
	if !strings.Contains(b.String(), "empty_ns_count 0") ||
		!strings.Contains(b.String(), "empty_ns_p99 0") {
		t.Errorf("empty histogram output:\n%s", b.String())
	}
}

// Labeled metrics are one family: the exposition must emit HELP/TYPE
// once per family with every labeled variant grouped under it, and the
// un-suffixed family name must strip cleanly.
func TestWritePrometheusLabeledFamilies(t *testing.T) {
	if got := Labeled("poem_shard_entries_total", "shard", "3"); got != `poem_shard_entries_total{shard="3"}` {
		t.Fatalf("Labeled = %q", got)
	}
	reg := NewRegistry()
	for _, idx := range []string{"0", "1", "2"} {
		reg.Counter(Labeled("poem_shard_entries_total", "shard", idx), "entries per shard").Inc()
	}
	reg.Counter("poem_plain_total", "unlabeled neighbor").Add(4)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "# TYPE poem_shard_entries_total counter"); got != 1 {
		t.Errorf("family TYPE header emitted %d times, want 1:\n%s", got, out)
	}
	if got := strings.Count(out, "# HELP poem_shard_entries_total "); got != 1 {
		t.Errorf("family HELP header emitted %d times, want 1:\n%s", got, out)
	}
	for _, want := range []string{
		`poem_shard_entries_total{shard="0"} 1`,
		`poem_shard_entries_total{shard="1"} 1`,
		`poem_shard_entries_total{shard="2"} 1`,
		"# TYPE poem_plain_total counter",
		"poem_plain_total 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// The header for a labeled family must name the family, never a
	// labeled instance (TYPE lines with braces are invalid exposition).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") && strings.Contains(line, "{") {
			t.Errorf("header line carries a label: %q", line)
		}
	}
}

func TestDebugHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("poem_handler_total", "").Inc()
	extra := Endpoint{Pattern: "/extra", H: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("[]\n"))
	})}

	gate := make(chan struct{})
	srv := httptest.NewServer(Handler(reg, gate, extra))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "poem_handler_total 1") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if code, body := get("/extra"); code != 200 || body != "[]\n" {
		t.Errorf("/extra: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz: %d", code)
	}
	// Closing the gate turns the scrape endpoints off (late scrapes must
	// not race the store teardown) but leaves liveness up.
	close(gate)
	if code, _ := get("/metrics"); code != 503 {
		t.Errorf("/metrics after gate close: %d, want 503", code)
	}
	if code, _ := get("/extra"); code != 503 {
		t.Errorf("/extra after gate close: %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz after gate close: %d, want 200", code)
	}
}
