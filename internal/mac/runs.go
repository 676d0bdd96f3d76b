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
type SubbandRuns struct {
	starts []bool // starts[b]: some user's subband changes between RB b-1 and b
	bounds []int
}

// Of returns the run boundaries 0 = b_0 < b_1 < … < b_n = numRB for the
// given users; run i is the RB range [b_i, b_i+1). An empty grid has no
// run. The slice is valid until the next call.
//
//outran:allocfree
//outran:scratch
func (r *SubbandRuns) Of(users []*User, numRB int) []int {
	if numRB <= 0 {
		return nil
	}
	if cap(r.starts) < numRB {
		//outran:allocok capacity-guarded scratch growth; reruns only when the grid widens
		r.starts = make([]bool, numRB)
		//outran:allocok same guard: a grid of numRB RBs has at most numRB+1 boundaries
		r.bounds = make([]int, numRB+1)
	}
	starts := r.starts[:numRB]
	for b := range starts {
		starts[b] = false
	}
	marked := 0 // subband count of the last user marked; users mostly share one
	for _, u := range users {
		nsb := len(u.SubbandCQI)
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
