package obs

import (
	"fmt"
	"slices"

	"outran/internal/snapshot"
)

// tagRegistry is the structural sentinel for a registry snapshot;
// tagHistogram marks a standalone histogram payload.
const (
	tagRegistry  = 0x0b01
	tagHistogram = 0x0b02
)

// Walk is a standalone histogram's checkpoint layout: bucket layout,
// counts, sum, count and max. The stored layout must match h's exactly.
func (h *Histogram) Walk(w *snapshot.Walker) {
	w.Mark(tagHistogram)
	if w.FixedLen(len(h.bounds), 1<<16, "histogram bounds") {
		for i, want := range h.bounds {
			b := want
			if w.F64(&b); b != want && w.Err() == nil {
				w.Fail(fmt.Errorf("%w: histogram bucket layout mismatch at bound %d", snapshot.ErrCorrupt, i))
			}
		}
	}
	h.walkCounts(w)
}

// walkCounts walks everything a histogram holds beyond its layout.
func (h *Histogram) walkCounts(w *snapshot.Walker) {
	for i := range h.counts {
		w.U64(&h.counts[i])
	}
	w.F64(&h.sum)
	w.U64(&h.count)
	w.F64(&h.max)
}

// Walk is the registry's checkpoint layout: every instrument by sorted
// name, so same-state registries serialise identically regardless of
// registration order. Decoding registers instruments on demand, so it
// works on both an empty registry and one whose construction path has
// pre-registered (still-zero) instruments; any non-zero counter means
// state has already accumulated and restoring would silently merge two
// runs.
func (r *Registry) Walk(w *snapshot.Walker) {
	if w.Decoding() {
		// Order-free: any-match guard; no state depends on visit order
		for name, c := range r.counters {
			if c.v != 0 {
				w.Fail(fmt.Errorf("obs: restoring registry: counter %q already non-zero", name))
				return
			}
		}
	}
	w.Mark(tagRegistry)
	snapshot.Map(w, r.counters, 1<<20, 4+8, slices.Sort, func(name *string, c **Counter) {
		w.String(name)
		if w.Decoding() {
			*c = r.Counter(*name)
		}
		w.U64(&(*c).v)
	})
	snapshot.Map(w, r.gauges, 1<<20, 4+8, slices.Sort, func(name *string, g **Gauge) {
		w.String(name)
		if w.Decoding() {
			*g = r.Gauge(*name)
		}
		w.F64(&(*g).v)
	})
	snapshot.Map(w, r.histograms, 1<<20, 4+4+8+8+8+8, slices.Sort, func(name *string, h **Histogram) {
		w.String(name)
		var bounds []float64
		if !w.Decoding() {
			bounds = (*h).bounds
		}
		snapshot.Slice(w, &bounds, 1<<16, 8, w.F64)
		if w.Decoding() {
			for i := 1; i < len(bounds); i++ {
				if bounds[i] <= bounds[i-1] {
					w.Fail(fmt.Errorf("%w: histogram %q bounds not ascending at %d", snapshot.ErrCorrupt, *name, i))
				}
			}
			if w.Err() != nil {
				return
			}
			// An instrument the construction path registered keeps its own
			// layout, which the snapshot's must then fit.
			*h = r.Histogram(*name, bounds)
			if len((*h).bounds) != len(bounds) {
				w.Fail(fmt.Errorf("%w: histogram %q bucket layout mismatch", snapshot.ErrCorrupt, *name))
				return
			}
		}
		(*h).walkCounts(w)
	})
}
