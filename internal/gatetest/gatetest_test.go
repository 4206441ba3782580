package gatetest

import (
	"strings"
	"testing"
)

var sink *int

// BenchmarkAllocOnce allocates exactly once per op.
func BenchmarkAllocOnce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = new(int)
	}
}

func TestCheck(t *testing.T) {
	if Race {
		t.Skip("the race detector's instrumentation changes what the allocator counts")
	}
	if err := check("AllocOnce", 100, "allocs/op", 1); err != nil {
		t.Errorf("at its bound: %v", err)
	}
	if err := check("AllocOnce", 100, "allocs/op", 0); err == nil || !strings.Contains(err.Error(), "1 allocs/op at 100x, bound 0") {
		t.Errorf("over its bound: %v", err)
	}
	if err := check("AllocNever", 100, "allocs/op", 0); err == nil || !strings.Contains(err.Error(), "did not run") {
		t.Errorf("no such benchmark: %v", err)
	}
	if err := check("AllocOnce/sub", 100, "allocs/op", 1); err == nil || !strings.Contains(err.Error(), "did not run") {
		t.Errorf("no such sub-benchmark: %v", err)
	}
}
