package machine

import (
	"strings"
	"testing"

	"clustersim/internal/workload"
)

// TestEngineBounds is the admission table: every configuration or length
// the packed engine cannot represent is an error naming its limit, from
// New, SimulateVariants and the windowed store runs alike — never a
// silent switch to another engine, a panic, or a hang.
func TestEngineBounds(t *testing.T) {
	tr, err := workload.Generate("gzip", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(edit func(*Config)) Config {
		c := NewConfig(2)
		edit(&c)
		return c
	}
	cases := []struct {
		name  string
		cfg   Config
		insts int
		want  string // "" means admitted
	}{
		{"paper machine", NewConfig(8), MaxInsts, ""},
		{"16 clusters", cfg(func(c *Config) { c.Clusters, c.ROBSize = 16, 16*c.WindowPerCluster }), 200, ""},
		{"17 clusters", cfg(func(c *Config) { c.Clusters, c.ROBSize = 17, 17*c.WindowPerCluster }), 200, "16-cluster limit"},
		{"fwd at the limit", cfg(func(c *Config) { c.FwdLatency = MaxFwdLatency }), 200, ""},
		{"fwd past the limit", cfg(func(c *Config) { c.FwdLatency = MaxFwdLatency + 1 }), 200, "1024-cycle limit"},
		{"fwd 1<<30", cfg(func(c *Config) { c.FwdLatency = 1 << 30 }), 200, "1024-cycle limit"},
		{"too many insts", NewConfig(1), MaxInsts + 1, "16777216-instruction limit"},
		{"worst case past the cycle cap", cfg(func(c *Config) { c.PipelineDepth = 1 << 25 }), 200, "cycle limit"},
		{"long trace at max fwd", cfg(func(c *Config) { c.FwdLatency = MaxFwdLatency }), 2_000_000, "cycle limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Admit(tc.cfg, tc.insts)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Admit: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Admit err = %v, want one mentioning %q", err, tc.want)
			}
			if tc.insts != tr.Len() {
				return // the run-level paths below need a trace that long
			}
			m, err := New(tc.cfg, tr, ageTestPolicy{}, Hooks{})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if err := Check(runChecked(m)); err != nil {
					t.Fatal(err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New err = %v, want one mentioning %q", err, tc.want)
			}
			_, err = SimulateVariants(tr, []Variant{{Config: NewConfig(2), Pol: ageTestPolicy{}}, {Config: tc.cfg, Pol: ageTestPolicy{}}}, 1,
				func(int, *Machine, Result) error { return nil })
			if tc.want == "" {
				if err != nil {
					t.Fatalf("SimulateVariants: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), "variant 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("SimulateVariants err = %v, want variant 1's %q", err, tc.want)
			}
		})
	}

	// Windowed runs check the window before materializing it.
	if err := checkWindow(MaxInsts+1, MaxInsts+1); err == nil || !strings.Contains(err.Error(), "16777216-instruction limit") {
		t.Fatalf("oversized window: err = %v", err)
	}
	if err := checkWindow(MaxInsts+1, 1000); err != nil {
		t.Fatalf("window clipped to a short store: %v", err)
	}
	if err := checkWindow(MaxInsts, MaxInsts+1); err != nil {
		t.Fatalf("window at the limit: %v", err)
	}
}

func runChecked(m *Machine) *Machine {
	m.Run()
	return m
}
