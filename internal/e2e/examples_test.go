package e2e

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestExamples builds the examples/ programs the README walks through,
// runs each to exit 0 and checks one figure it prints, so a change that
// breaks the walkthrough fails here rather than in a reader's terminal.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./examples/...")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name  string
		check func(t *testing.T, out string)
	}{
		{"quickstart", func(t *testing.T, out string) {
			// The first send is forwarded; after the move the second
			// finds no neighbour.
			if !strings.Contains(out, "forwarded=1 noroute=1") {
				t.Error(`no "forwarded=1 noroute=1" in the server stats`)
			}
		}},
		{"proofofconcept", func(t *testing.T, out string) {
			if !strings.Contains(out, `VMN3 received "via the repaired route" from VMN1`) {
				t.Error("VMN3 did not receive the message over the repaired route")
			}
		}},
		{"relay", checkRelayLoss},
		{"multichannel", checkChannelIsolation},
		{"scripted", func(t *testing.T, out string) {
			_, activity, ok := strings.Cut(out, "\nactivity:\n")
			row := regexp.MustCompile(`(?m)^  \[\S+ \.\. \S+\] in=(\d+) out=\d+ drop=\d+$`)
			rows := row.FindAllStringSubmatch(activity, -1)
			in := 0
			for _, r := range rows {
				n, _ := strconv.Atoi(r[1])
				in += n
			}
			if !ok || len(rows) == 0 || in == 0 {
				t.Errorf("the replay printed %d activity rows with %d packets in, want rows with traffic", len(rows), in)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(dir, tc.name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", tc.name, err, out)
			}
			tc.check(t, string(out))
			if t.Failed() {
				t.Logf("output:\n%s", out)
			}
		})
	}
}

// checkRelayLoss reads the relay example's per-second table. The
// analytic column reads 1.000 from the first second whose midpoint finds
// the relay out of VMN1's range; the relay may leave during that second,
// and the scene moves it only on its mobility tick, so only the seconds
// after it are wholly out of range. In those every packet is lost.
func checkRelayLoss(t *testing.T, out string) {
	row := regexp.MustCompile(`(?m)^\s+([0-9.]+)\s+([0-9.]+)\s+([0-9.]+)$`)
	outOfRange := 0
	for _, r := range row.FindAllStringSubmatch(out, -1) {
		if r[3] != "1.000" {
			continue
		}
		if outOfRange++; outOfRange > 1 && r[2] != "1.000" {
			t.Errorf("t=%ss: loss %s with the relay out of range, want 1.000", r[1], r[2])
		}
	}
	if outOfRange < 2 {
		t.Errorf("%d seconds with the relay out of range, want at least 2", outOfRange)
	}
}

// checkChannelIsolation reads the multichannel example's worst
// latencies: moving the second flow to its own channel ends the
// contention, so the split phase's worst is below the shared phase's.
// Only the ordering is checked; the figures themselves ride on the
// wall clock.
func checkChannelIsolation(t *testing.T, out string) {
	line := regexp.MustCompile(`(?m)^\s+(shared|split)\s*: VMN\d+ got\s+\d+ pkts, worst latency\s+(\S+)$`)
	worst := map[string]time.Duration{}
	for _, m := range line.FindAllStringSubmatch(out, -1) {
		d, err := time.ParseDuration(m[2])
		if err != nil {
			t.Fatalf("latency %q: %v", m[2], err)
		}
		worst[m[1]] = max(worst[m[1]], d)
	}
	shared, ok1 := worst["shared"]
	split, ok2 := worst["split"]
	if !ok1 || !ok2 {
		t.Fatalf("want worst latencies for both phases, got %v", worst)
	}
	if split >= shared {
		t.Errorf("split phase's worst latency %v is not below the shared phase's %v", split, shared)
	}
}
