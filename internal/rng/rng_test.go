package rng

import (
	"math"
	"testing"
	"testing/quick"

	"outran/internal/snapshot/snapshottest"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(7)
	f := a.Fork()
	// Drawing from the fork must not be identical to the parent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("fork mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean %g far from 0.5", m)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(3.5)
	}
	if m := sum / n; math.Abs(m-3.5) > 0.05 {
		t.Fatalf("exponential mean %g far from 3.5", m)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean %g", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("normal std %g", std)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(17)
	for _, mean := range []float64{0.5, 4, 25, 100} {
		sum := 0.0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%g) mean %g", mean, got)
		}
	}
}

func TestPoissonNonPositive(t *testing.T) {
	r := New(1)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestLogUniformRange(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		v := r.LogUniform(10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("LogUniform out of range: %g", v)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		v := make([]int, n)
		for i := range v {
			v[i] = i
		}
		New(seed).Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
		seen := make([]bool, n)
		for _, x := range v {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWalkResumesStream: a source decoded from another's walk continues
// that source's stream bit for bit, whatever it was seeded with.
func TestWalkResumesStream(t *testing.T) {
	a, b := New(42), New(7)
	for i := 0; i < 100; i++ {
		a.Normal(0, 1)
	}
	snapshottest.RoundTrip(t, a.Walk, b.Walk)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("restored stream diverges at %d", i)
		}
	}
}
