package clustersim

import (
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/listsched"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	tr, err := GenerateTrace("vpr", 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(NewConfig(4), tr, SimOptions{Policy: "focused"})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.CPI() <= 0 {
		t.Fatalf("CPI = %v", res.CPI())
	}
	a, err := sim.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if a.Breakdown.Total() <= 0 {
		t.Fatal("empty critical-path attribution")
	}
}

func TestFacadePolicies(t *testing.T) {
	tr, err := GenerateTrace("gzip", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		sim, err := NewSim(NewConfig(8), tr, SimOptions{Policy: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := sim.Run()
		if res.Insts != int64(tr.Len()) {
			t.Fatalf("%s: incomplete run", name)
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Fatal("accepted unknown policy")
	}
}

func TestFacadeGuards(t *testing.T) {
	tr, _ := GenerateTrace("vpr", 2000, 1)
	sim, err := NewSim(NewConfig(2), tr, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CriticalPath(); err == nil {
		t.Error("CriticalPath before Run must fail")
	}
	if _, err := sim.ConsumerStats(); err == nil {
		t.Error("ConsumerStats without TrackExact must fail")
	}
	if _, err := sim.LoCHistogram(20); err == nil {
		t.Error("LoCHistogram without TrackExact must fail")
	}
	sim.Run()
	if _, err := sim.IdealizedSchedule(NewConfig(8)); err == nil {
		t.Error("IdealizedSchedule on a clustered run must fail")
	}
}

func TestFacadeExactTracking(t *testing.T) {
	tr, _ := GenerateTrace("parser", 20000, 1)
	sim, err := NewSim(NewConfig(4), tr, SimOptions{Policy: "loc", TrackExact: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	h, err := sim.LoCHistogram(20)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range h {
		total += v
	}
	if total < 99 || total > 101 {
		t.Fatalf("histogram sums to %v", total)
	}
	cs, err := sim.ConsumerStats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Values == 0 {
		t.Fatal("no values in consumer stats")
	}
}

func TestFacadeIdealizedSchedule(t *testing.T) {
	tr, _ := GenerateTrace("gzip", 8000, 1)
	mono, err := NewSim(NewConfig(1), tr, SimOptions{Policy: "depbased"})
	if err != nil {
		t.Fatal(err)
	}
	mono.Run()
	s1, err := mono.IdealizedSchedule(NewConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s8, err := mono.IdealizedSchedule(NewConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	ratio := s8.CPI() / s1.CPI()
	if ratio < 1 || ratio > 1.2 {
		t.Fatalf("idealized 8x1w/1x8w ratio = %.3f", ratio)
	}
	// The pooled scheduler behind IdealizedSchedule matches the oracle.
	in := listsched.FromMachineRun(mono.m)
	want, err := listsched.Run(in, listsched.ConfigFor(NewConfig(8)), listsched.NewOracle(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s8, want) {
		t.Fatal("IdealizedSchedule differs from listsched.Run's oracle schedule")
	}
}

func TestBenchmarkListStable(t *testing.T) {
	if len(Benchmarks()) != 12 {
		t.Fatalf("Benchmarks() = %v", Benchmarks())
	}
}

func TestFacadeSlackAndTimeline(t *testing.T) {
	tr, _ := GenerateTrace("gzip", 8000, 1)
	sim, err := NewSim(NewConfig(4), tr, SimOptions{Policy: "loc"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Slack(); err == nil {
		t.Error("Slack before Run must fail")
	}
	var sb strings.Builder
	if err := sim.WriteTimeline(&sb, 0, 8); err == nil {
		t.Error("WriteTimeline before Run must fail")
	}
	sim.Run()
	slack, sum, err := sim.Slack()
	if err != nil {
		t.Fatal(err)
	}
	if len(slack) != tr.Len() || sum.MeanSlack < 0 {
		t.Fatalf("slack output wrong: %d values, %+v", len(slack), sum)
	}
	sb.Reset()
	if err := sim.WriteTimeline(&sb, 100, 110); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cycles") {
		t.Error("timeline missing header")
	}
}
