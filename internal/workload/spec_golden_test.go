package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"outran/internal/sim"
)

// TestParentEquivalentSpecBuild pins the flow list Spec.Build produces
// for the five benchmark workloads' specs (at representative cell
// capacities and the benchmark's arrival spans) to hashes recorded on
// the commit before the size tables became shared values and the
// per-class sort went from sort.SliceStable to slices.SortStableFunc.
// A stable sort has one correct output, so the order — ties included —
// must not have moved; nor may a shared table have changed a draw.
func TestParentEquivalentSpecBuild(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; math.Exp/Log may round differently elsewhere")
	}
	mixed, _ := Scenario("mixed", "lte", 0.7)
	churn := Spec{Load: 0.25, Classes: []ClassSpec{
		{Kind: ClassVoice, Share: 0.4},
		{Kind: ClassIoT, Share: 0.1},
		{Kind: ClassWeb, Dist: "mirage", Share: 0.5},
	}}
	cases := []struct {
		name   string
		spec   Spec
		env    Env
		seed   uint64
		flows  int
		sha256 string
	}{
		{"lte-steady", PoissonSpec("lte", 0.6), Env{NumUEs: 20, CapacityBps: 42e6, Span: 40500 * sim.Millisecond}, 1, 1963, "2a4a2ee4433102f1b9466812d8f08dbd4902b3ff07ce7e39e2a04be84cebf740"},
		{"nr-dense", PoissonSpec("mirage", 0.8), Env{NumUEs: 40, CapacityBps: 260e6, Span: 8500 * sim.Millisecond}, 2, 3960, "77c6208bb15c96bbca073be8fcd51e92b97f62ee9bde805980d8910a576f8ca7"},
		{"flow-churn", churn, Env{NumUEs: 12, CapacityBps: 42e6, Span: 50500 * sim.Millisecond}, 3, 60957, "47aa4a3f0988ca00ffaaa3e368ebe42d725b4f3473e6755e769fb7079169c18a"},
		{"city-ops", mixed, Env{NumUEs: 12, CapacityBps: 10.5e6, Span: 5500 * sim.Millisecond}, 4, 1321, "f5392df6c8eb6661290fbe5bc82b160771f7be9b0d3caf46d4179d12de2a949e"},
		{"cell-traced", mixed, Env{NumUEs: 12, CapacityBps: 10.5e6, Span: 40500 * sim.Millisecond}, 5, 9959, "fcfba40cdc5de43a2765bdef72956ad27c8f5f3a7e1f5f728c7b64d65447fa7f"},
	}
	for _, tc := range cases {
		flows := buildFlows(t, tc.spec, tc.env, tc.seed)
		h := sha256.New()
		for _, f := range flows {
			fmt.Fprintf(h, "%d %d %d %t\n", f.Start, f.UE, f.Size, f.Incast)
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(flows) != tc.flows || got != tc.sha256 {
			t.Errorf("%s: flow list differs from the parent commit's:\n got  %d flows, sha256 %s\n want %d flows, sha256 %s",
				tc.name, len(flows), got, tc.flows, tc.sha256)
		}
	}
}
