//go:build linux

package main

import (
	"syscall"
	"time"
)

// childAttr makes a phase's process die with the benchmark process, so a
// run stopped from outside leaves no round running behind it.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// sleepUntil blocks the calling thread in nanosleep until due. The
// runtime's timers wake a sleeper at millisecond granularity once its
// processors go idle, which left the open-loop generator about 0.6 ms
// late at the median, more than the server's own time for a cached
// answer; nanosleep wakes within tens of microseconds.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
		// Interrupted by a signal: sleep for what is left.
	}
}
