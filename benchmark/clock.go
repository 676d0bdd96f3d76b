package main

import "time"

// now is the benchmark's only wall-clock read; every host-time metric
// and every span boundary goes through it.
//
//outran:wallclock the benchmark times public simulator calls from outside; the reading never enters simulated state
func now() time.Time { return time.Now() }

// sinceNs returns the host nanoseconds elapsed since t0.
func sinceNs(t0 time.Time) float64 { return float64(now().Sub(t0).Nanoseconds()) }
