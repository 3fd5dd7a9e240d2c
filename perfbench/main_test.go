package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// runTiny runs one tiny-scale benchmark and returns its report's last
// line.
func runTiny(t *testing.T, workload string, seed uint64, trace bool) (bool, result) {
	t.Helper()
	c := config{workload: workload, seed: seed, seconds: 1, trace: trace, scale: "tiny", workdir: t.TempDir()}
	var out bytes.Buffer
	ok, err := run(c, &out)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return ok, res
}

// TestSmoke runs every workload at tiny scale, untraced and traced, on
// the default seed (committed references) and another (references
// computed in the run), and checks that every named metric prints with
// its unit.
func TestSmoke(t *testing.T) {
	layers := layerNames()
	for _, w := range []string{"paper", "stream", "serve"} {
		for _, seed := range []uint64{1, 2} {
			for _, traced := range []bool{false, true} {
				ok, res := runTiny(t, w, seed, traced)
				if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced %v: ok %v correct %v attempted %d failed %d",
						w, seed, traced, ok, res.Correct, res.Attempted, res.Failed)
				}
				want := e2eUnits
				if traced {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced %v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, found := res.Metrics[name]
					switch {
					case !found:
						t.Errorf("%s traced %v: metric %s missing", w, traced, name)
					case m.Unit != unit:
						t.Errorf("%s traced %v: metric %s unit %q, want %q", w, traced, name, m.Unit, unit)
					case !traced && m.Value <= 0:
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestCorruptedReferenceFailsRun shows that an output that does not
// match its committed reference fails the run: one corrupted paper
// digest fails that experiment's cold and warm render, and one
// corrupted stream total fails every window of both simulations.
func TestCorruptedReferenceFailsRun(t *testing.T) {
	saved := paperDigests["tiny"]["fig4"]
	paperDigests["tiny"]["fig4"] = strings.Repeat("0", 64)
	ok, res := runTiny(t, "paper", 1, false)
	paperDigests["tiny"]["fig4"] = saved
	if ok || res.Correct || res.Failed != 2 {
		t.Errorf("paper with a corrupted digest: ok %v correct %v failed %d, want false false 2", ok, res.Correct, res.Failed)
	}

	savedTotal := streamTotals["tiny"]
	bad := savedTotal
	bad.Cycles++
	streamTotals["tiny"] = bad
	ok, res = runTiny(t, "stream", 1, false)
	streamTotals["tiny"] = savedTotal
	if ok || res.Correct || res.Failed != res.Attempted {
		t.Errorf("stream with a corrupted total: ok %v correct %v failed %d of %d", ok, res.Correct, res.Failed, res.Attempted)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists in
// step with what the code prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want map[string]string
	}{{"end_to_end", b.EndToEnd, e2eUnits}, {"per_layer", b.PerLayer, layerNames()}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s lists %d metrics, the code prints %d", tc.what, len(tc.got), len(tc.want))
		}
		for _, m := range tc.got {
			if unit, ok := tc.want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): the code prints unit %q (known %v)", tc.what, m.Name, m.Unit, unit, ok)
			}
		}
	}
}

func TestParseFlags(t *testing.T) {
	c, err := parseFlags([]string{"--workload", "serve", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil || c.workload != "serve" || c.seed != 7 || c.seconds != 3 || !c.trace || c.scale != "full" {
		t.Errorf("parseFlags = %+v, %v", c, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--trace", "2"},
		{"--workload", "paper", "--seconds", "0"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	kids := []span{{Start: 2 * ms, End: 5 * ms}, {Start: 4 * ms, End: 7 * ms}, {Start: 9 * ms, End: 12 * ms}}
	// Children cover [2,7) and [9,10) of the parent's [0,10).
	if got := covered(0, 10*ms, kids); got != int64(6*ms) {
		t.Errorf("covered = %v, want 6ms", time.Duration(got))
	}
}

func TestPassesDependOnlyOnArguments(t *testing.T) {
	for _, tc := range []struct {
		seconds int
		nominal float64
		want    int
	}{{25, 7.5, 3}, {25, 5, 5}, {25, 3.3, 8}, {1, 7.5, 1}} {
		if got := passes(tc.seconds, tc.nominal); got != tc.want {
			t.Errorf("passes(%d, %v) = %d, want %d", tc.seconds, tc.nominal, got, tc.want)
		}
	}
}
