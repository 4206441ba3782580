package vclock_test

import (
	"fmt"
	"time"

	"repro/internal/vclock"
)

// The Figure 5 estimate recovers the server offset exactly when the
// transport delays are symmetric.
func ExampleSynchronize() {
	base := vclock.NewManual(0)
	server := vclock.Offset{Base: base, Shift: 3 * time.Second}
	link := vclock.ExchangerFunc(func(tc1 vclock.Time) (vclock.Time, vclock.Time, error) {
		base.Advance(5 * time.Millisecond) // forward delay
		ts2 := server.Now()
		ts3 := server.Now()
		base.Advance(5 * time.Millisecond) // backward delay
		return ts2, ts3, nil
	})
	offset, sample, _ := vclock.Synchronize(base, link, 1)
	fmt.Printf("estimated offset %v over a %v round trip\n", offset, sample.RTT())
	// Output:
	// estimated offset 3s over a 10ms round trip
}

// A Manual clock drives deterministic tests. A Waiter is the one way
// to sleep on emulation time: it wakes exactly when the clock is
// advanced past its deadline, and a Wake cancels the sleep.
func ExampleManual() {
	clk := vclock.NewManual(0)
	w := vclock.NewWaiter(clk)
	done := make(chan bool)
	go func() { done <- w.Wait(vclock.FromSeconds(5)) }()
	clk.Advance(10 * time.Second)
	fmt.Println("woke:", <-done, "at", clk.Now())

	w.Wake()
	fmt.Println("woken early:", !w.Wait(vclock.FromSeconds(60)))
	// Output:
	// woke: true at 10.000s
	// woken early: true
}
