package ran

import (
	"strings"
	"testing"

	"outran/internal/metrics"
	"outran/internal/sim"
)

func TestWithDefaultsFillsUnsetFields(t *testing.T) {
	c := Config{Grid: DefaultLTEConfig().Grid}.WithDefaults()
	if c.NumUEs != 1 {
		t.Errorf("NumUEs = %d, want 1", c.NumUEs)
	}
	if c.FairnessWindow != sim.Second {
		t.Errorf("FairnessWindow = %v, want 1s", c.FairnessWindow)
	}
	if c.BufferSDUs != 128 {
		t.Errorf("BufferSDUs = %d, want 128", c.BufferSDUs)
	}
	if c.CQIPeriod != 5*sim.Millisecond {
		t.Errorf("CQIPeriod = %v, want 5ms", c.CQIPeriod)
	}
	if c.PDCPSNBits != 12 {
		t.Errorf("PDCPSNBits = %d, want 12", c.PDCPSNBits)
	}
	if c.Scheduler != SchedPF || c.InnerScheduler != SchedPF {
		t.Errorf("schedulers = %q/%q, want PF/PF", c.Scheduler, c.InnerScheduler)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("defaulted config does not validate: %v", err)
	}
	// Set fields survive defaulting untouched.
	d := DefaultLTEConfig()
	d.NumUEs = 7
	d.BufferSDUs = 64
	if got := d.WithDefaults(); got.NumUEs != 7 || got.BufferSDUs != 64 {
		t.Errorf("WithDefaults clobbered set fields: %+v", got)
	}
}

// TestValidateNamesOffendingField checks each rejection path mentions
// the bad field, so config errors from the binaries are actionable.
func TestValidateNamesOffendingField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error
	}{
		{"ues", func(c *Config) { c.NumUEs = -1 }, "NumUEs"},
		{"ues past the FCT sample's UE field", func(c *Config) { c.NumUEs = metrics.UELimit + 1 }, "NumUEs"},
		{"scheduler", func(c *Config) { c.Scheduler = "bogus" }, "Scheduler"},
		{"inner", func(c *Config) { c.Scheduler = SchedOutRAN; c.InnerScheduler = SchedRR }, "InnerScheduler"},
		{"rlc", func(c *Config) { c.RLC = RLCMode(9) }, "RLC"},
		{"fairness", func(c *Config) { c.FairnessWindow = -sim.Second }, "FairnessWindow"},
		{"buffer", func(c *Config) { c.BufferSDUs = -1 }, "BufferSDUs"},
		{"cqi", func(c *Config) { c.CQIPeriod = -sim.Millisecond }, "CQIPeriod"},
		{"snbits low", func(c *Config) { c.PDCPSNBits = 4 }, "PDCPSNBits"},
		{"snbits high", func(c *Config) { c.PDCPSNBits = 19 }, "PDCPSNBits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultLTEConfig()
			tc.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestValidateAdmitsUELimit: the FCT sample's UE field holds indices
// below metrics.UELimit, so a cell of exactly that many UEs is valid.
func TestValidateAdmitsUELimit(t *testing.T) {
	c := DefaultLTEConfig()
	c.NumUEs = metrics.UELimit
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewCellRejectsInvalidConfig(t *testing.T) {
	c := DefaultLTEConfig()
	c.Scheduler = "bogus"
	if _, err := NewCell(c); err == nil || !strings.Contains(err.Error(), "invalid cell config") {
		t.Fatalf("NewCell error = %v, want wrapped validation error", err)
	}
}

func TestConfigBuilders(t *testing.T) {
	c := DefaultLTEConfig().WithTopology(12, 30).ForScheduler(SchedPSS).WithSeed(99)
	if c.NumUEs != 12 || c.Grid.NumRB != 30 || c.Seed != 99 {
		t.Fatalf("builder chain: %+v", c)
	}
	if c.Scheduler != SchedPSS || !c.QoSShortFlows {
		t.Fatalf("ForScheduler(PSS) must enable the short-flow QoS profile: %+v", c)
	}
	c = c.ForScheduler(SchedOutRAN)
	if c.QoSShortFlows {
		t.Fatal("ForScheduler(OutRAN) must clear the short-flow QoS profile")
	}
	// rbs = 0 keeps the grid width.
	if got := DefaultLTEConfig().WithTopology(5, 0); got.Grid.NumRB != DefaultLTEConfig().Grid.NumRB {
		t.Fatalf("WithTopology(5, 0) changed the grid: %d RBs", got.Grid.NumRB)
	}
}
