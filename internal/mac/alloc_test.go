package mac

import (
	"testing"

	"outran/internal/probetest"
)

// allocUsers is the shared workload for the zero-alloc probes: a mix
// with a faded user and an empty buffer.
func allocUsers() []*User {
	users := []*User{
		user(0, 10, 1e6, 1000),
		user(1, 4, 2e6, 500),
		user(2, 0, 1e5, 800), // faded
		user(3, 15, 5e5, 0),  // empty buffer
	}
	users[0].Buffer.QoSBytes = 200
	return users
}

// probeAllocate builds a steady-state zero-alloc probe over the given
// schedulers, each on three populations: allocUsers' mix, every
// backlogged user faded (every run idle), and no backlogged user (the
// early return). AllocsPerRun's warm-up call
// covers the first-TTI scratch growth.
func probeAllocate(scheds ...Scheduler) func(t *testing.T) {
	return func(t *testing.T) {
		g := grid()
		for _, pop := range []struct {
			name  string
			users []*User
		}{
			{"mixed", allocUsers()},
			{"faded", []*User{user(0, 0, 1e6, 1000), user(1, 0, 2e6, 500)}},
			{"idle", []*User{user(0, 10, 1e6, 0), user(1, 4, 2e6, 0)}},
		} {
			for _, s := range scheds {
				users := pop.users
				allocs := testing.AllocsPerRun(100, func() {
					s.Allocate(0, users, g)
				})
				if allocs != 0 {
					t.Errorf("%s, %s users: %.1f allocs/TTI, want 0", s.Name(), pop.name, allocs)
				}
			}
		}
	}
}

// TestAllocateZeroAllocs pins the tentpole property on every MAC
// scheduler: after the first TTI grows the scratch, steady-state
// Allocate performs no heap allocation. The probe registry is keyed
// by //outran:allocfree annotation; probetest.Run fails if the two
// drift apart in either direction. PSS and CQA are MetricScheduler
// configurations; their probes keep the subtest names of the types
// they replaced, outside the registry since no annotation carries them.
func TestAllocateZeroAllocs(t *testing.T) {
	t.Run("(*PSS).Allocate", probeAllocate(NewPSS()))
	t.Run("(*CQA).Allocate", probeAllocate(NewCQA()))
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*MetricScheduler).Allocate": probeAllocate(NewPF(), NewMT(), NewRR()),
		"(*SRJF).Allocate":            probeAllocate(NewSRJF()),
		"(*SubbandRuns).Of": func(t *testing.T) {
			users := benchUsers(8, 13)
			users[3].SubbandCQI = users[3].SubbandCQI[:9] // mixed subband counts
			var runs SubbandRuns
			allocs := testing.AllocsPerRun(100, func() {
				runs.Of(users, 100)
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs/call, want 0", allocs)
			}
		},
	})
}

// TestAllocationResetReuses checks Reset keeps the backing array when
// capacity suffices and clears every RB.
func TestAllocationResetReuses(t *testing.T) {
	a := NewAllocation(8)
	p := &a.RBOwner[0]
	a.RBOwner[3] = 2
	a.Reset(4)
	if len(a.RBOwner) != 4 || &a.RBOwner[0] != p {
		t.Fatal("Reset reallocated despite sufficient capacity")
	}
	for _, o := range a.RBOwner {
		if o != -1 {
			t.Fatal("Reset left an RB assigned")
		}
	}
}

// TestAllocateScratchReused pins the ownership contract: consecutive
// Allocate calls on one scheduler return allocations sharing backing
// storage.
func TestAllocateScratchReused(t *testing.T) {
	s := NewPF()
	users := []*User{user(0, 10, 1e6, 1000)}
	a1 := s.Allocate(0, users, grid())
	a2 := s.Allocate(0, users, grid())
	if &a1.RBOwner[0] != &a2.RBOwner[0] {
		t.Fatal("scratch not reused across Allocate calls")
	}
}
