package channel

// useAVX2 selects gainDB's four-lane kernel. It follows the CPU and
// nothing else: AVX2 present and the OS saving ymm state.
var useAVX2 = cpuHasAVX2()

// trigJakesAVX2 evaluates the sixteen trig calls of j.gainDB(ts) with
// trigKernel's arithmetic on four lanes: out[n] = cos(omega[n]*ts +
// phasesI[n]) and out[8+n] = sin(omega[n]*ts + phasesQ[n]), each with
// math.Cos's and math.Sin's bits. It returns false, with out
// unspecified, when some argument is outside trigKernel's own range
// (|x| < 2^29; also NaN and ±Inf).
//
//go:noescape
func trigJakesAVX2(ts float64, j *jakes, out *[2 * numOscillators]float64) bool

func cpuHasAVX2() bool
