package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

func TestRunBenchmark(t *testing.T) {
	if err := run("gzip", "", 3000, 1, 8, "stall-over-steer", 5); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := workload.GenerateToFile("vpr", 2000, 1, path, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := run("", path, 0, 1, 4, "focused", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	ctr1 := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(ctr1, []byte("CTR1\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, bench, trace, policy, want string
	}{
		{name: "no input", policy: "focused"},
		{name: "unknown benchmark", bench: "nope", policy: "focused"},
		{name: "unknown policy", bench: "vpr", policy: "bogus"},
		{name: "missing trace", trace: "/nonexistent", policy: "focused"},
		{name: "CTR1 trace", trace: ctr1, policy: "focused", want: "regenerate it with tracegen"},
	} {
		err := run(tc.bench, tc.trace, 100, 1, 4, tc.policy, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
