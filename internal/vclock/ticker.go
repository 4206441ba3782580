package vclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Ticker calls a function on a fixed emulation-time cadence in its own
// goroutine.
type Ticker struct {
	w       Waiter
	stopped atomic.Bool
	once    sync.Once
	done    chan struct{}
}

// Every calls fn(clk.Now()) once per elapsed step of clk's time, the
// first call one step from now, until the Ticker is stopped.
func Every(clk WaitClock, step time.Duration, fn func(now Time)) *Ticker {
	t := &Ticker{w: NewWaiter(clk), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		next := clk.Now().Add(step)
		for !t.stopped.Load() {
			if t.w.Wait(next) {
				fn(clk.Now())
				next = next.Add(step)
			}
		}
	}()
	return t
}

// Stop halts the ticker and waits for its goroutine. Safe to call from
// several goroutines at once, and more than once.
func (t *Ticker) Stop() {
	t.once.Do(func() {
		t.stopped.Store(true)
		t.w.Wake()
	})
	<-t.done
}
