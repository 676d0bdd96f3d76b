package workload

// Source is the pull-based workload API: a deterministic, sim-time
// ordered stream of flow arrivals. Next returns flows in non-decreasing
// Start order until the stream is exhausted. Implementations may
// materialize their schedule internally; the contract is about the
// consumption side — a cell pulls one flow at a time, as the run
// reaches the previous one's arrival, and holds one queued arrival per
// source, never a slice of its own. A Source whose start goes backwards
// makes the cell panic, naming both flows.
//
// Determinism contract: a Source built from the same spec, environment
// and rng seed yields the same flow sequence on every platform, run
// and worker count.
type Source interface {
	Next() (FlowSpec, bool)
}

// Len reports how many flows src has yet to yield, for the sources this
// package builds — SliceSource, MergeSources, Limit, Build and
// Schedule.Source, over sources of the same kinds — and false for any
// other Source.
func Len(src Source) (int, bool) {
	switch s := src.(type) {
	case *sliceSource:
		return len(s.flows) - s.i, true
	case *mergeSource:
		n := 0
		for i, in := range s.srcs {
			k, ok := Len(in)
			if !ok {
				return 0, false
			}
			if s.ok[i] {
				k++ // the head, pulled already
			}
			n += k
		}
		return n, true
	case *limitSource:
		k, ok := Len(s.src)
		return min(k, max(s.n, 0)), ok
	}
	return 0, false
}

// sliceSource streams a pre-sorted schedule.
type sliceSource struct {
	flows []FlowSpec
	i     int
}

func (s *sliceSource) Next() (FlowSpec, bool) {
	if s.i >= len(s.flows) {
		return FlowSpec{}, false
	}
	f := s.flows[s.i]
	s.i++
	return f, true
}

// SliceSource wraps a time-sorted schedule as a Source. The slice is
// not copied; the caller must not mutate it afterwards.
func SliceSource(flows []FlowSpec) Source {
	return &sliceSource{flows: flows}
}

// Collect drains a source into a slice — the bridge back to the
// slice-based helpers (Merge, TotalBytes, WriteTrace) and to callers
// that schedule flows directly on a cell.
func Collect(src Source) []FlowSpec {
	var out []FlowSpec
	for {
		f, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// mergeSource lazily k-way merges sorted sources. Ties break on the
// lowest source index, so composition order is part of the stream's
// identity and the merge is stable.
type mergeSource struct {
	srcs []Source
	head []FlowSpec
	ok   []bool
}

// MergeSources combines sorted sources into one sorted stream. Each
// input is pulled only as its head is consumed; same-instant flows
// come out in source order (stable).
func MergeSources(srcs ...Source) Source {
	m := &mergeSource{
		srcs: srcs,
		head: make([]FlowSpec, len(srcs)),
		ok:   make([]bool, len(srcs)),
	}
	for i, s := range srcs {
		m.head[i], m.ok[i] = s.Next()
	}
	return m
}

func (m *mergeSource) Next() (FlowSpec, bool) {
	best := -1
	for i := range m.srcs {
		if !m.ok[i] {
			continue
		}
		if best < 0 || m.head[i].Start < m.head[best].Start {
			best = i
		}
	}
	if best < 0 {
		return FlowSpec{}, false
	}
	f := m.head[best]
	m.head[best], m.ok[best] = m.srcs[best].Next()
	return f, true
}

// limitSource caps a stream at n flows.
type limitSource struct {
	src Source
	n   int
}

func (l *limitSource) Next() (FlowSpec, bool) {
	if l.n <= 0 {
		return FlowSpec{}, false
	}
	l.n--
	return l.src.Next()
}

// Limit caps a source at n flows (n <= 0 passes everything through).
func Limit(src Source, n int) Source {
	if n <= 0 {
		return src
	}
	return &limitSource{src: src, n: n}
}
