//go:build !linux

package main

import (
	"syscall"
	"time"
)

// childAttr is the platform default elsewhere: a phase's process
// outlives a killed benchmark process until its own deadline.
func childAttr() *syscall.SysProcAttr { return nil }

// sleepUntil sleeps on the runtime's timers, which may wake the
// open-loop generator up to about a millisecond late; client.late_p99_ms
// shows how late.
func sleepUntil(due time.Time) { time.Sleep(time.Until(due)) }
