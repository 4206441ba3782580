// Package gatetest holds a benchmark's allocation figures to a bound
// inside `go test`. It runs the benchmark at a fixed iteration count in
// a fresh child run of the test binary, where pools, rings and stacks
// start cold whatever tests ran before, and fails the calling test on a
// figure over the bound or a benchmark that did not run. Only test
// files import it.
package gatetest

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Allocs fails t unless bench, run at n iterations, reports at most max
// allocs/op. bench is the benchmark's name without "Benchmark", with its
// sub-benchmark path if it has one ("ScannerStorm/fan=36"); each element
// must match a name exactly.
func Allocs(t *testing.T, bench string, n int, max int64) {
	t.Helper()
	gate(t, bench, n, "allocs/op", max)
}

// Bytes is Allocs for B/op.
func Bytes(t *testing.T, bench string, n int, max int64) {
	t.Helper()
	gate(t, bench, n, "B/op", max)
}

func gate(t *testing.T, bench string, n int, unit string, max int64) {
	t.Helper()
	if Race {
		t.Skip("the race detector's instrumentation changes what the allocator counts")
	}
	if err := check(bench, n, unit, max); err != nil {
		t.Fatal(err)
	}
}

// check runs the child and holds every result line it prints to max.
func check(bench string, n int, unit string, max int64) error {
	elems := strings.Split("Benchmark"+bench, "/")
	for i, e := range elems {
		elems[i] = "^" + regexp.QuoteMeta(e) + "$"
	}
	out, err := exec.Command(os.Args[0], "-test.run=^$", "-test.bench="+strings.Join(elems, "/"),
		"-test.benchmem", "-test.benchtime="+strconv.Itoa(n)+"x", "-test.count=1").CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s at %dx: %v\n%s", bench, n, err, out)
	}
	ran := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for i := 3; i < len(f); i++ {
			if f[i] != unit {
				continue
			}
			v, err := strconv.ParseInt(f[i-1], 10, 64)
			if err != nil {
				return fmt.Errorf("%s: unreadable %s figure in %q", bench, unit, line)
			}
			if v > max {
				return fmt.Errorf("%s: %d %s at %dx, bound %d", f[0], v, unit, n, max)
			}
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("%s at %dx reported no %s: the benchmark did not run\n%s", bench, n, unit, out)
	}
	return nil
}
