// Package fixture exercises the allocfree analyzer: every allocation
// construct inside an //outran:allocfree function (or a function it
// statically calls) is flagged unless justified with //outran:allocok.
package fixture

// scratch is reused storage, grown only off the hot path.
var scratch []int

// sink takes an interface parameter, forcing callers to box.
func sink(v interface{}) {}

// hot is the annotated hot path: each construct below is a finding.
//
//outran:allocfree
func hot(n int, xs []int) int {
	buf := make([]int, n)         // want:allocfree
	p := new(int)                 // want:allocfree
	xs = append(xs, n)            // want:allocfree
	fn := func() int { return n } // want:allocfree
	sink(n)                       // want:allocfree
	_ = any(n)                    // want:allocfree
	// Pointers and funcs are stored in the interface word as they are;
	// a struct holding the same pointer twice is copied to the heap.
	sink(p)
	sink(fn)
	_ = any(p)
	sink(struct{ a, b *int }{p, p}) // want:allocfree
	if n < 0 {
		panic(n) // want:allocfree
	}
	_ = buf
	_ = p
	return fn() + helper(n) + len(xs)
}

// helper is un-annotated but statically called from hot, so it is in
// the checked closure.
func helper(n int) int {
	ys := make([]int, 0, n) // want:allocfree
	return len(ys)
}

// grow shows the justified amortized pattern: capacity-guarded scratch
// growth is allocation-free in steady state.
//
//outran:allocfree
func grow(n int) {
	if cap(scratch) < n {
		//outran:allocok amortized scratch growth; steady state reuses capacity
		scratch = make([]int, n)
	}
	scratch = scratch[:n]
}

// captureFree shows that a capture-free literal is accepted.
//
//outran:allocfree
func captureFree() int {
	f := func() int { return 1 }
	return f()
}

// cold is neither annotated nor called from an annotated function:
// it may allocate freely.
func cold(n int) []int {
	return make([]int, n)
}
