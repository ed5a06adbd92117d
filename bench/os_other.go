//go:build !linux

package main

import "time"

// The benchmark is defined on Linux; elsewhere it still builds, with
// runtime timers for pacing and no CPU accounting.

func cpuTime() time.Duration { return 0 }

func pacerInit() (done func()) { return func() {} }

func pacerSleep(d time.Duration) { time.Sleep(d) }
