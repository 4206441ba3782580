//go:build linux

package sched

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/vclock"
)

// subMsLagBound is vclock's alarmSlack (150 µs) plus 300 µs of
// scheduling noise: the bound vclock's TestWallWaiterSubMillisecondDeadline
// holds the wall waiter to.
const subMsLagBound = 450 * time.Microsecond

// A scanner idling between sub-millisecond dues must fire each one
// within the wall waiter's bound, not a rounded-up millisecond late.
// The listener keeps the runtime's poller live, as a server's sockets
// do.
func TestScannerWakesForSubMillisecondDue(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clk := vclock.NewSystem(1)
	fired := make(chan vclock.Time, 1)
	s := NewScanner(clk, func(now vclock.Time, _ []Item) { fired <- now })
	s.Start()
	defer s.Stop()
	lags := make([]time.Duration, 100)
	for i := range lags {
		due := clk.Now().Add(300 * time.Microsecond)
		push(s, Item{Due: due})
		select {
		case now := <-fired:
			lags[i] = now.Sub(due)
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d never fired", i)
		}
	}
	slices.Sort(lags)
	med := lags[len(lags)/2]
	t.Logf("fire lag p50 %v, p90 %v", med, lags[len(lags)*9/10])
	if med >= subMsLagBound {
		t.Errorf("300 µs dues fire %v late at the median, want < %v", med, subMsLagBound)
	}
}
