//go:build linux

package vclock

import (
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// alarm is a timerfd the wall waiter arms beside its timer and never
// reads. os.NewFile registers the non-blocking fd with the runtime's
// poller, so the alarm ringing ends an idle runtime's epoll_wait, whose
// timeout the runtime rounds to whole milliseconds, and the runtime
// then runs its due timers. The zero alarm (timerfd_create failed)
// arms nothing.
type alarm struct {
	f *os.File // its finalizer closes fd once the waiter is dropped
	// fd is f's descriptor, kept because File.Fd would switch it to
	// blocking mode with an fcntl on every call.
	fd uintptr
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock Go's timers run on

func newAlarm() alarm {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK|TFD_CLOEXEC
	if errno != 0 {
		return alarm{}
	}
	return alarm{os.NewFile(fd, "vclock-alarm"), fd}
}

// itimerspec is struct itimerspec; syscall.Timespec has each arch's
// layout.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// arm makes the alarm ring once, d from now, replacing any earlier
// arming. A failed timerfd_settime leaves the timer as the only wake.
func (a alarm) arm(d time.Duration) { a.set(syscall.NsecToTimespec(int64(d))) }

// disarm cancels a pending ring: a zero it_value stops a timerfd.
func (a alarm) disarm() { a.set(syscall.Timespec{}) }

func (a alarm) set(value syscall.Timespec) {
	if a.f == nil {
		return
	}
	its := itimerspec{value: value}
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	runtime.KeepAlive(a.f) // the finalizer must not close fd mid-call
}
