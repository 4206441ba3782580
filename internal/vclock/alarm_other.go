//go:build !linux

package vclock

import "time"

// alarm is a no-op off Linux: the wall waiter sleeps on its timer alone
// and keeps the Go runtime's timer granularity.
type alarm struct{}

func newAlarm() alarm { return alarm{} }

func (alarm) arm(time.Duration) {}

func (alarm) disarm() {}
