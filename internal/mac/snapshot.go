package mac

import (
	"outran/internal/phy"
	"outran/internal/snapshot"
)

// tagUser is the structural sentinel for one user's MAC state.
const tagUser = 0x3a01

// Walk is the user's checkpoint layout, its persistent MAC state: the
// per-subband CQI view, the PF long-term average (eq. 1), and the RR
// recency stamp. Buffer is refreshed from RLC every TTI before
// scheduling and is deliberately excluded — it is per-TTI scratch, not
// state. The id and the subband count must match the constructed user:
// a mismatch means the snapshot came from a different cell
// configuration.
func (u *User) Walk(w *snapshot.Walker) {
	w.Mark(tagUser)
	snapshot.Same(w, w.Int, int(u.ID), "user id")
	if w.FixedLen(len(u.SubbandCQI), 1<<16, "subbands") {
		for i := range u.SubbandCQI {
			q := uint8(u.SubbandCQI[i])
			w.U8(&q)
			u.SubbandCQI[i] = phy.CQI(q)
		}
	}
	w.F64(&u.AvgTputBps)
	snapshot.I64(w, &u.LastServed)
}
