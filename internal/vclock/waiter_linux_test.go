//go:build linux

package vclock

import (
	"net"
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
)

// An idle Go runtime sleeps in epoll_wait, whose timeout it rounds to
// whole milliseconds, so a bare time.Timer due in 300 µs fires about
// 1 ms late. The wall waiter's alarm keeps sub-millisecond and
// non-integer-millisecond deadlines: the median overshoot stays within
// alarmSlack plus scheduling noise. The listener keeps the runtime's
// poller live, as a server's sockets do.
func TestWallWaiterSubMillisecondDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clk := NewSystem(1)
	w := NewWaiter(clk)
	bound := alarmSlack + 300*time.Microsecond
	for _, d := range []time.Duration{100 * time.Microsecond, 300 * time.Microsecond, 1300 * time.Microsecond} {
		over := make([]time.Duration, 200)
		for i := range over {
			target := clk.Now().Add(d)
			if !w.Wait(target) {
				t.Fatalf("%v wait returned false with no Wake issued", d)
			}
			over[i] = clk.Now().Sub(target)
		}
		slices.Sort(over)
		med := over[len(over)/2]
		t.Logf("%v waits: overshoot p50 %v, p90 %v", d, med, over[len(over)*9/10])
		if med >= bound {
			t.Errorf("%v waits overshoot by %v at the median, want < %v", d, med, bound)
		}
	}
}

// A kicked sleep disarms its alarm, so an abandoned deadline does not
// ring later into whatever the runtime is doing. A sleep that reaches
// its deadline leaves its alarm to ring, which shows the check can see
// a ring at all.
func TestKickedWaitDisarmsAlarm(t *testing.T) {
	clk := NewSystem(1)
	w := NewWaiter(clk).(*wallWaiter)
	if w.alarm.f == nil {
		t.Skip("no timerfd on this kernel")
	}
	rang := func() bool { // the alarm is never read otherwise
		var b [8]byte
		n, _ := syscall.Read(int(w.alarm.fd), b[:])
		return n == len(b)
	}
	const d = 2 * time.Millisecond
	settle := d + alarmSlack + 3*time.Millisecond
	if !w.Wait(clk.Now().Add(d)) {
		t.Fatal("Wait returned false with no Wake issued")
	}
	time.Sleep(settle)
	if !rang() {
		t.Fatal("a sleep that reached its deadline left no ring")
	}
	w.Wake()
	if w.Wait(clk.Now().Add(d)) {
		t.Fatal("Wait returned true despite a pending Wake")
	}
	time.Sleep(settle)
	if rang() {
		t.Fatal("a kicked sleep's alarm rang after Wait returned")
	}
}

// Each wall waiter holds one timerfd, closed by its os.File's
// finalizer: dropped waiters give their descriptors back.
func TestDroppedWaitersReleaseAlarms(t *testing.T) {
	countFds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list descriptors: %v", err)
		}
		return len(ents)
	}
	base := countFds()
	clk := NewSystem(1)
	func() {
		ws := make([]Waiter, 4096)
		for i := range ws {
			ws[i] = NewWaiter(clk)
			ws[i].Wait(clk.Now().Add(time.Microsecond))
		}
	}()
	runtime.GC()
	runtime.GC()
	// Finalizers run on their own goroutine after the collection.
	deadline := time.Now().Add(5 * time.Second)
	for countFds() > base+64 {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open after dropping 4096 waiters, started with %d", countFds(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
