package pdcp

import (
	"slices"

	"outran/internal/ip"
	"outran/internal/sim"
)

// flowEntry is one flow's row of the sent-bytes table, 32 bytes. sent
// packs the flow's sent bytes above its last classified priority (kept
// for level-change tracing): sentBytes<<prioBits | prio. A classifier's
// priorities fit in prioBits (core.Config.Validate caps the queue
// count), and a flow would have to send 256 TiB to carry out of the
// byte half.
type flowEntry struct {
	key      ip.TupleKey
	lastSeen sim.Time
	sent     uint64
}

// The split of flowEntry.sent.
const (
	prioBits     = 16
	prioMask     = 1<<prioBits - 1
	maxSentBytes = 1<<(64-prioBits) - 1
)

func (fe *flowEntry) sentBytes() int64 { return int64(fe.sent >> prioBits) }
func (fe *flowEntry) prio() int        { return int(fe.sent & prioMask) }

// maxFlowEntries bounds the flow table; beyond it, entries idle for
// more than flowIdleEviction are swept.
const (
	maxFlowEntries   = 8192
	flowIdleEviction = 10 * sim.Second
)

// flowTable is the per-flow sent-bytes table: its entries by value, in
// ascending key order, in one array with a gap. a[:lo] and a[hi:] hold
// the entries and a[lo:hi] is free. An insert moves the gap to its
// position and fills the gap's first slot, so a run of inserts at
// increasing positions shifts only the entries between consecutive
// inserts: while the cell's port counter climbs every new flow is an
// append, and once it has wrapped each new flow lands just past the
// previous one. Every walk reads the entries in key order as they lie;
// none sorts. The entries hold no pointers, so the garbage collector
// never scans the array.
type flowTable struct {
	a      []flowEntry // len(a) == cap(a)
	lo, hi int
}

func (ft *flowTable) len() int { return ft.lo + len(ft.a) - ft.hi }

// at returns the entry at position i in key order.
func (ft *flowTable) at(i int) *flowEntry {
	if i < ft.lo {
		return &ft.a[i]
	}
	return &ft.a[i+ft.hi-ft.lo]
}

// each calls f on every entry in key order.
func (ft *flowTable) each(f func(*flowEntry)) {
	for i := range ft.lo {
		f(&ft.a[i])
	}
	for i := ft.hi; i < len(ft.a); i++ {
		f(&ft.a[i])
	}
}

// find returns the entry keyed k or, when there is none, nil and the
// position in key order an entry keyed k would take. The last entry is
// checked first: until the port counter wraps, the newest flow has the
// highest key.
func (ft *flowTable) find(k ip.TupleKey) (*flowEntry, int) {
	n := ft.len()
	if n == 0 {
		return nil, 0
	}
	if last := ft.at(n - 1); !k.Less(last.key) {
		if k == last.key {
			return last, n - 1
		}
		return nil, n
	}
	// k sorts before the last entry, so whichever side of the gap holds
	// its place is non-empty.
	run, base := ft.a[ft.hi:], ft.lo
	if ft.lo > 0 && !ft.a[ft.lo-1].key.Less(k) {
		run, base = ft.a[:ft.lo], 0
	}
	i, j := 0, len(run)
	for i < j {
		m := int(uint(i+j) >> 1)
		if run[m].key.Less(k) {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < len(run) && run[i].key == k {
		return &run[i], base + i
	}
	return nil, base + i
}

// insert puts a zeroed entry keyed k at position pos, the one find
// returned for k, and returns it.
func (ft *flowTable) insert(pos int, k ip.TupleKey) *flowEntry {
	if ft.lo == ft.hi {
		ft.grow()
	}
	switch {
	case pos < ft.lo:
		n := ft.lo - pos
		copy(ft.a[ft.hi-n:ft.hi], ft.a[pos:ft.lo])
		ft.lo, ft.hi = pos, ft.hi-n
	case pos > ft.lo:
		n := pos - ft.lo
		copy(ft.a[ft.lo:pos], ft.a[ft.hi:ft.hi+n])
		ft.lo, ft.hi = pos, ft.hi+n
	}
	fe := &ft.a[ft.lo]
	*fe = flowEntry{key: k}
	ft.lo++
	return fe
}

// grow enlarges a full array by append's growth rule, keeping the gap
// where it was.
func (ft *flowTable) grow() {
	tail := len(ft.a) - ft.hi
	a := slices.Grow(ft.a, 1)
	a = a[:cap(a)]
	copy(a[len(a)-tail:], a[ft.hi:len(ft.a)])
	ft.a, ft.hi = a, len(a)-tail
}

// evictIdle drops the entries idle past the eviction horizon. The
// survivors close up at the front of the array in key order, leaving
// the gap at the end.
func (ft *flowTable) evictIdle(now sim.Time) {
	n := 0
	ft.each(func(fe *flowEntry) {
		if now-fe.lastSeen <= flowIdleEviction {
			ft.a[n] = *fe // n never passes the entry being read
			n++
		}
	})
	ft.lo, ft.hi = n, len(ft.a)
}
