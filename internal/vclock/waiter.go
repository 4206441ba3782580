package vclock

import "time"

// Waiter is the one way to sleep on emulation time: a reusable,
// cancelable alarm bound to one clock. One Waiter serves one sleeping
// goroutine; Wake may be called from any number of goroutines.
//
// Semantics mirror a 1-buffered kick channel: Wake wakes the Wait in
// progress, or — when none is — the next one (extra Wakes coalesce into
// one token). A Wait woken by a stale token returns false with the
// deadline unreached; callers must treat a false return as "re-check
// your state", not "the deadline moved".
//
// There are two implementations and a Wait in either performs no heap
// allocation and spawns no goroutine: the wall waiter (System and
// StallClock) reuses one time.Timer and one alarm across sleeps, the
// manual waiter (Manual) reuses one registration.
type Waiter interface {
	// Wait blocks until the clock reaches t (returns true) or a Wake
	// token arrives (returns false). Wait must not be called
	// concurrently with itself.
	Wait(t Time) bool
	// Wake unblocks the current or next Wait. Safe for concurrent use;
	// redundant Wakes coalesce.
	Wake()
}

// NewWaiter builds clk's Waiter.
func NewWaiter(clk WaitClock) Waiter { return clk.newWaiter() }

// wake is the 1-buffered kick both waiters share.
type wake chan struct{}

func (w wake) Wake() {
	select {
	case w <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// Wall waiter: one reusable timer and alarm, zero allocs per Wait.

// alarmSlack is how long after a sleep's deadline the wall waiter's
// alarm rings. The alarm only has to end an idle runtime's poller wait,
// whose timeout Go rounds to whole milliseconds; a busy runtime runs
// the timer on time by itself. The slack trades punctuality for
// batching: a later alarm lets one wake-up collect more dues
// (EXPERIMENTS A22 measures 0, 50, 150 and 300 µs).
const alarmSlack = 150 * time.Microsecond

// maxAlarm is the longest sleep the alarm is armed for: longer sleeps,
// Wait(Max) among them, keep the timer alone, and d + alarmSlack cannot
// overflow or outgrow a 32-bit timespec.
const maxAlarm = 24 * time.Hour

// wallClock is a clock read off the host's wall clock: sleepFor returns
// how long to sleep before re-checking whether it reads t, or 0 once it
// does.
type wallClock interface {
	sleepFor(t Time) time.Duration
}

type wallWaiter struct {
	clk   wallClock
	timer *time.Timer
	alarm alarm
	wake
}

func newWallWaiter(clk wallClock) *wallWaiter {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &wallWaiter{clk: clk, timer: t, alarm: newAlarm(), wake: make(wake, 1)}
}

// Wait sleeps on the reused timer, with the alarm armed alarmSlack
// behind it. A kick is a channel send and the alarm is never read; a
// kicked sleep disarms the alarm as it returns, so an abandoned deadline
// does not ring into whatever the runtime does next. The loop tolerates
// time-scale rounding (a fire marginally short of t re-arms), a stalled
// clock (it re-arms at the poll interval) and a stale timer value left
// in the channel by an earlier cancel — a stale fire only costs one
// extra iteration, never a wrong result.
func (w *wallWaiter) Wait(t Time) bool {
	for {
		d := w.clk.sleepFor(t)
		if d <= 0 {
			return true
		}
		if !w.timer.Stop() {
			select { // drain a stale fire so Reset arms cleanly
			case <-w.timer.C:
			default:
			}
		}
		armed := d <= maxAlarm
		if armed {
			w.alarm.arm(d + alarmSlack)
		}
		w.timer.Reset(d)
		select {
		case <-w.timer.C:
		case <-w.wake:
			w.timer.Stop()
			if armed {
				w.alarm.disarm()
			}
			return false
		}
	}
}

// ---------------------------------------------------------------------------
// Manual waiter: one reusable registration, zero allocs per Wait.

// manualWaiter is one sleeper on a Manual clock. Its wake channel
// doubles as the fire channel: the clock fires it by Waking after
// deregistering (see Manual.Set), a caller's Wake does not deregister,
// so on wakeup "still registered" distinguishes a cancel from the
// deadline.
type manualWaiter struct {
	m        *Manual
	deadline Time
	wake
}

// Wait registers the waiter and blocks on its channel; registered on
// wakeup means Wake won, and Wait deregisters itself before returning
// false.
func (w *manualWaiter) Wait(t Time) bool {
	m := w.m
	if t == Max {
		// Unreachable deadline: don't register; only a Wake can end this.
		<-w.wake
		return false
	}
	m.mu.Lock()
	if m.now >= t {
		m.mu.Unlock()
		return true
	}
	w.deadline = t
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	<-w.wake
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, x := range m.waiters {
		if x == w {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return false
		}
	}
	return true
}
