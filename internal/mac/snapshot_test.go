package mac

import (
	"errors"
	"testing"

	"outran/internal/phy"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestUserWalkRoundTrip: a user's MAC state survives encode -> decode
// -> encode byte for byte, and a snapshot of another geometry or another
// user is refused.
func TestUserWalkRoundTrip(t *testing.T) {
	u := &User{ID: 3, SubbandCQI: []phy.CQI{7, 15, 1}, AvgTputBps: 1.5e6, LastServed: 42 * sim.Millisecond}
	fresh := &User{ID: 3, SubbandCQI: make([]phy.CQI, 3)}
	img := snapshottest.RoundTrip(t, u.Walk, fresh.Walk)
	if fresh.SubbandCQI[1] != 15 || fresh.AvgTputBps != u.AvgTputBps || fresh.LastServed != u.LastServed {
		t.Fatalf("restored user %+v, want %+v", fresh, u)
	}
	for name, target := range map[string]*User{
		"other subband count": {ID: 3, SubbandCQI: make([]phy.CQI, 4)},
		"other user id":       {ID: 4, SubbandCQI: make([]phy.CQI, 3)},
	} {
		w := snapshot.DecodeWalker(snapshot.NewDecoder(img))
		if target.Walk(w); !errors.Is(w.Err(), snapshot.ErrCorrupt) {
			t.Errorf("%s: decode error %v, want snapshot.ErrCorrupt", name, w.Err())
		}
	}
}
