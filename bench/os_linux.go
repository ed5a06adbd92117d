package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pacerInit prepares the calling goroutine to sleep precisely. The Go
// runtime parks an idle process in epoll_wait with millisecond timeouts,
// so time.Sleep overshoots by about a millisecond — four inter-arrival
// gaps at 4000 requests/s per connection, which would turn the open loop
// into millisecond bursts and bury the daemon's round trip under the
// generator's own lateness. Instead the pacing goroutine owns an OS
// thread, asks the kernel for the smallest timer slack, and sleeps in
// nanosleep(2): overshoot drops to the idle CPU's wake-up time (tens of
// microseconds), reported as gen.late_p99_us. The returned function
// undoes the thread lock.
func pacerInit() (done func()) {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	// Best effort: with the default 50 µs slack the pacer still works,
	// only later.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return runtime.UnlockOSThread
}

// pacerSleep blocks the calling thread for d.
func pacerSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// An interrupted sleep returns early; the caller re-reads the clock
	// and sleeps again, so the error carries nothing it needs.
	_ = syscall.Nanosleep(&ts, nil)
}
