package mac

import (
	"errors"
	"strings"
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
	for _, tc := range []struct {
		name   string
		target *User
		want   string // the check that must refuse it
	}{
		{"other subband count", &User{ID: 3, SubbandCQI: make([]phy.CQI, 4)}, "3 subbands, restore target is built with 4"},
		{"other user id", &User{ID: 4, SubbandCQI: make([]phy.CQI, 3)}, "user id 3, restore target 4"},
	} {
		err := snapshottest.Decode(img, tc.target.Walk)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want snapshot.ErrCorrupt saying %q", tc.name, err, tc.want)
		}
	}
}
