// Package fixture holds annotated and unannotated functions for the
// probetest tests.
package fixture

type ring struct{ buf []int }

// hot is annotated.
//
//outran:allocfree
func hot(n int) int { return n }

// grow is annotated, with a rationale after the tag.
//
//outran:allocfree amortized: capacity only grows
func (r *ring) grow(n int) {
	if cap(r.buf) < n {
		r.buf = make([]int, n)
	}
}

// Len is annotated on a value receiver.
//
//outran:allocfree
func (r ring) Len() int { return len(r.buf) }

// typo puts a space in the tag, so it is not annotated.
//
// outran:allocfree
func typo() {}

// cold is not annotated.
func cold(n int) []int { return make([]int, n) }
