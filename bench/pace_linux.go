//go:build linux

package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// preciseTimers sets the calling thread's timer slack to 1 ns, so its
// sleeps end within microseconds of their deadline rather than the default
// 50 µs. The runtime's own timers wake a millisecond late for sub-
// millisecond sleeps, which would add the generator's lateness to every
// latency it measures.
func preciseTimers() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure only coarsens pacing, which step.valid reports
}

// sleepUntil blocks the calling thread until about t. A signal may end the
// sleep early; callers loop.
func sleepUntil(t time.Time) {
	ts := syscall.NsecToTimespec(int64(time.Until(t)))
	syscall.Nanosleep(&ts, nil) // EINTR ends the sleep early, as documented
}
