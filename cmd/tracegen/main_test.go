package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateWriteInspect: -o writes a CTR2 file, and -inspect of it
// reports the same op mix, branch rate and footprint as summarizing the
// same generation in memory.
func TestGenerateWriteInspect(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "vpr.trace")
	if err := run(io.Discard, "vpr", 2000, 1, out, "", false); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(out)
	if err != nil || info.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
	var inspected, inMemory bytes.Buffer
	if err := run(&inspected, "", 0, 0, "", out, false); err != nil {
		t.Fatalf("inspect failed: %v", err)
	}
	if err := run(&inMemory, "vpr", 2000, 1, "", "", false); err != nil {
		t.Fatal(err)
	}
	// Everything after the name line must match.
	_, got, _ := strings.Cut(inspected.String(), "\n")
	_, want, _ := strings.Cut(inMemory.String(), "\n")
	if got != want || !strings.Contains(want, "IntALU") {
		t.Fatalf("-inspect summary differs from the in-memory one:\n%s\nwant:\n%s", got, want)
	}
}

func TestList(t *testing.T) {
	if err := run(io.Discard, "", 0, 0, "", "", true); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	ctr1 := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(ctr1, []byte("CTR1\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		bench, out, insp string
		want             string
	}{
		{name: "no-op invocation"},
		{name: "unknown benchmark", bench: "nope"},
		{name: "missing trace file", insp: "/nonexistent/file"},
		{name: "unwritable output", bench: "vpr", out: "/nonexistent/dir/x.trace"},
		{name: "CTR1 trace file", insp: ctr1, want: "regenerate it with tracegen"},
	} {
		err := run(io.Discard, tc.bench, 100, 1, tc.out, tc.insp, false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
