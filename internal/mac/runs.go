package mac

// SubbandOfRB is the one RB→subband mapping: RB rb of a numRB-wide
// grid lies in subband rb·nsb/numRB of a user that reports nsb
// subbands. A user without a report (nsb == 0) has no subband, -1.
func SubbandOfRB(rb, nsb, numRB int) int {
	sb := rb * nsb / numRB
	if sb >= nsb {
		sb = nsb - 1
	}
	return sb
}

// SubbandRuns cuts a grid into subband runs: maximal RB ranges over
// which SubbandOfRB is constant for every user at once. A scheduling
// metric sees an RB only through its subband's CQI, so everything a
// scheduler decides for the first RB of a run holds for the whole run.
// When all users report the same subband count the runs are the
// subbands themselves.
//
// The partition depends only on the grid width and each user's subband
// count, which a cell fixes at attach time, so Of memoises it on exactly
// that key and recuts only when the key changes.
type SubbandRuns struct {
	starts []bool // starts[b]: some user's subband changes between RB b-1 and b
	bounds []int
	runs   []int // the memoised result, a prefix of bounds
	numRB  int   // the key runs was cut for: the grid width
	nsbs   []int // and every user's subband count, in user order
}

// Of returns the run boundaries 0 = b_0 < b_1 < … < b_n = numRB for the
// given users; run i is the RB range [b_i, b_i+1). An empty grid has no
// run. The slice is valid until the next call.
//
//outran:allocfree
func (r *SubbandRuns) Of(users []*User, numRB int) []int {
	if numRB <= 0 {
		return nil
	}
	if r.keyed(users, numRB) {
		return r.runs
	}
	if cap(r.nsbs) < len(users) {
		// Not a steady-state allocation: capacity-guarded scratch growth; reruns only when the user population grows
		r.nsbs = make([]int, len(users))
	}
	r.nsbs = r.nsbs[:len(users)]
	for i, u := range users {
		r.nsbs[i] = len(u.SubbandCQI)
	}
	r.numRB = numRB
	r.runs = r.cut(numRB)
	return r.runs
}

// keyed reports whether the memoised runs were cut for this grid width
// and these subband counts.
func (r *SubbandRuns) keyed(users []*User, numRB int) bool {
	if numRB != r.numRB || len(users) != len(r.nsbs) {
		return false
	}
	for i, u := range users {
		if len(u.SubbandCQI) != r.nsbs[i] {
			return false
		}
	}
	return true
}

// cut computes the partition for the key Of just stored.
func (r *SubbandRuns) cut(numRB int) []int {
	if cap(r.starts) < numRB {
		// Not a steady-state allocation: capacity-guarded scratch growth; reruns only when the grid widens
		r.starts = make([]bool, numRB)
		// Not a steady-state allocation: same guard: a grid of numRB RBs has at most numRB+1 boundaries
		r.bounds = make([]int, numRB+1)
	}
	starts := r.starts[:numRB]
	for b := range starts {
		starts[b] = false
	}
	marked := 0 // subband count of the last user marked; users mostly share one
	for _, nsb := range r.nsbs {
		if nsb == marked || nsb < 2 {
			continue
		}
		marked = nsb
		if nsb >= numRB {
			// No two RBs share a subband.
			for b := range starts {
				starts[b] = true
			}
			break
		}
		for sb := 1; sb < nsb; sb++ {
			// The first RB of subband sb is the least b with
			// b·nsb/numRB >= sb, that is ceil(sb·numRB/nsb).
			starts[(sb*numRB+nsb-1)/nsb] = true
		}
	}
	bounds := r.bounds[:numRB+1]
	bounds[0] = 0
	n := 1
	for b := 1; b < numRB; b++ {
		if starts[b] {
			bounds[n] = b
			n++
		}
	}
	bounds[n] = numRB
	return bounds[:n+1]
}

// BackloggedUsers returns the indices of the users with queued data, in
// ascending order, in dst's storage (grown to len(users) when short).
// The schedulers build it once per Allocate and walk it in every
// subband run, so a run costs the backlogged users, not the attached
// ones; the ascending order keeps every first-max tie-break.
func BackloggedUsers(dst []int, users []*User) []int {
	if cap(dst) < len(users) {
		// Not a steady-state allocation: capacity-guarded scratch growth; reruns only when the user population grows
		dst = make([]int, len(users))
	}
	dst = dst[:len(users)]
	n := 0
	for ui, u := range users {
		if u.Buffer.Backlogged() {
			dst[n] = ui
			n++
		}
	}
	return dst[:n]
}
