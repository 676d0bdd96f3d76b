//go:build !amd64

package channel

// useAVX2 is false where there is no vector kernel: gainDB runs
// trigKernel, which is the same arithmetic one lane at a time.
var useAVX2 = false

func trigJakesAVX2(ts float64, j *jakes, out *[2 * numOscillators]float64) bool { return false }
