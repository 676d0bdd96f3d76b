package outran

import (
	"io"
	"testing"

	"outran/internal/experiments"
)

// BenchmarkExperiments regenerates every registered table and figure at
// a reduced but shape-preserving scale (Scale 0.25: fewer UEs, shorter
// arrival windows, single seed), one sub-benchmark per id:
// `go test -run '^$' -bench 'Experiments/fig15$' .`. Run the full-scale
// versions with `go run ./cmd/outran-bench all`.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.IDs() {
		f, _ := experiments.Lookup(id)
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables, err := f(experiments.Options{Scale: 0.25, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatal("no tables produced")
				}
				for _, t := range tables {
					t.Fprint(io.Discard)
				}
			}
		})
	}
}
