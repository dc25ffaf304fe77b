//go:build !linux

package main

import "time"

// preciseTimers has no portable equivalent: pacing falls back to the
// runtime's timers, and step.valid reports when they are too coarse.
func preciseTimers() {}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
