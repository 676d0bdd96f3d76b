// Package sim is outran-vet's fixture with known findings: a host-clock
// wait inside the determinism scope, and an allocation in an
// //outran:allocfree function that the syntax pass and the compiler's
// escape analysis both report.
package sim

import "time"

// Wait couples the simulated schedule to the host clock.
func Wait() {
	time.Sleep(time.Millisecond)
}

// Grow claims to be allocation-free and is not.
//
//outran:allocfree
func Grow(n int) []int {
	return make([]int, n)
}
