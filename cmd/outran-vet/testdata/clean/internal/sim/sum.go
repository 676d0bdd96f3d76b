// Package sim is outran-vet's clean fixture: one honest
// //outran:allocfree function and one justified allocation, so the
// directive inventory has something to pin.
package sim

// Sum adds xs without allocating.
//
//outran:allocfree
func Sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Scratch sizes a buffer once, off the hot path.
//
//outran:allocfree
func Scratch(buf []int, n int) []int {
	if cap(buf) < n {
		//outran:allocok capacity-guarded growth; steady state reuses buf
		buf = make([]int, n)
	}
	return buf[:n]
}
