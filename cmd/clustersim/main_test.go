package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Insts: 4000, Benchmarks: []string{"vpr"}}
}

func TestRunAllExperimentNames(t *testing.T) {
	for _, exp := range experiments.Registry {
		if err := exp.Render(tinyOpts(), io.Discard); err != nil {
			t.Errorf("%s: %v", exp.Name, err)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, args := range [][]string{{"nope"}, {"fig4", "nope"}, {"fig2", "all"}} {
		if _, err := resolve(args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	all, err := resolve([]string{"all"})
	if err != nil || len(all) != len(experiments.Registry)-1 {
		t.Errorf("all resolved to %d experiments (err %v), want every registry entry but fig14-detail", len(all), err)
	}
}

// TestBadNameFailsBeforeWork runs the real command with a valid
// experiment followed by a typo: it must exit 2 naming the valid
// experiments, and print no Figure 4.
func TestBadNameFailsBeforeWork(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "clustersim", "-n", "3000", "-benchmarks", "gzip", "fig4", "nope")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr:\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("ran experiments before rejecting the name:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"nope"`) || !strings.Contains(msg, "fig14-detail") {
		t.Errorf("stderr does not name the bad experiment and the valid ones:\n%s", msg)
	}
}

// TestCacheMemZeroRejected runs both commands with -cache-mem 0, which
// the engine would read as the 1 GiB default: each must exit 2 before
// any work, naming the flag.
func TestCacheMemZeroRejected(t *testing.T) {
	wantRejected(t, "-cache-mem 0", "clustersim", "-n", "3000", "-benchmarks", "gzip", "-cache-mem", "0", "fig4")
	wantRejected(t, "-cache-mem 0", "serve", "-addr", "127.0.0.1:0", "-cache-mem", "0")
}

// TestDefaultedFlagValuesRejected runs both commands with the flag
// values a lower layer reads as unset: -n, -fwd and -seed that
// experiments.Options.WithDefaults defaults, -j that engine.New reads as
// GOMAXPROCS, and serve's -queue and -max-insts that server.New
// defaults. Each would otherwise run silently at the default, so each
// must exit 2 before any work, naming the flag and value.
func TestDefaultedFlagValuesRejected(t *testing.T) {
	for _, flagArgs := range [][]string{
		{"-n", "0"}, {"-n", "-5"}, {"-fwd", "0"}, {"-fwd", "-3"}, {"-seed", "0"},
		{"-j", "0"}, {"-j", "-2"},
	} {
		args := append([]string{"clustersim", "-n", "3000", "-benchmarks", "gzip"}, flagArgs...)
		wantRejected(t, strings.Join(flagArgs, " "), append(args, "fig2")...)
	}
	for _, flagArgs := range [][]string{
		{"-j", "0"}, {"-queue", "0"}, {"-queue", "-1"}, {"-max-insts", "0"}, {"-max-insts", "-9"},
	} {
		wantRejected(t, strings.Join(flagArgs, " "), append([]string{"serve", "-addr", "127.0.0.1:0"}, flagArgs...)...)
	}
}

// wantRejected re-executes the test binary as the command args name and
// requires exit status 2, empty stdout and a stderr containing named.
func wantRejected(t *testing.T, named string, args ...string) {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	// A serve that accepted the flag would listen until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%q: exit = %v, want status 2; stderr:\n%s", args, err, stderr.String())
		return
	}
	if stdout.Len() != 0 {
		t.Errorf("%q: worked before rejecting the flag:\n%s", args, stdout.String())
	}
	if !strings.Contains(stderr.String(), named) {
		t.Errorf("%q: stderr does not name %q:\n%s", args, named, stderr.String())
	}
}

// TestFig6ReusesFig5Runs: fig6 renders from Figure5's runs, so after
// fig5 on the same engine it simulates and analyses nothing new.
func TestFig6ReusesFig5Runs(t *testing.T) {
	opts := tinyOpts()
	opts.Engine = engine.New(engine.Config{Workers: 2})
	fig5, _ := experiments.Lookup("fig5")
	fig6, _ := experiments.Lookup("fig6")
	if err := fig5.Render(opts, io.Discard); err != nil {
		t.Fatal(err)
	}
	before := opts.Engine.Summary()
	if before.SimMisses == 0 || before.AnaMisses == 0 {
		t.Fatalf("fig5 on a fresh engine ran %d simulations and %d analyses", before.SimMisses, before.AnaMisses)
	}
	if err := fig6.Render(opts, io.Discard); err != nil {
		t.Fatal(err)
	}
	after := opts.Engine.Summary()
	if after.SimMisses != before.SimMisses || after.AnaMisses != before.AnaMisses {
		t.Errorf("fig6 added %d sim misses and %d analysis misses, want 0 and 0",
			after.SimMisses-before.SimMisses, after.AnaMisses-before.AnaMisses)
	}
}

func TestWriteReport(t *testing.T) {
	path := t.TempDir() + "/report.md"
	if err := writeReport(path, tinyOpts(), batch()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# clustersim results report", "Figure 14", "Figure 2", "ablation"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestReportRendersNamedExperiments runs the real command with -report
// and one name: the report holds that experiment's section and no other.
func TestReportRendersNamedExperiments(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/r.md"
	cmd := exec.Command(bin, "clustersim", "-n", "400", "-benchmarks", "gzip", "-report", path, "fig2")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fig2, _ := experiments.Lookup("fig2")
	if n := strings.Count(string(data), "\n## "); n != 1 || !strings.Contains(string(data), "\n## "+fig2.Title+"\n") {
		t.Errorf("report has %d sections, want exactly fig2's %q:\n%s", n, fig2.Title, data)
	}
}

// TestDeadlineRunResumesFromCacheDir runs the real command with a
// -deadline that expires before any work: it must fail, tell the user to
// rerun on its -cache-dir, and simulate nothing. The rerun on that dir
// must print what an uninterrupted run prints, timing lines aside.
func TestDeadlineRunResumesFromCacheDir(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cache")
	run := func(flags ...string) (stdout, stderr string, err error) {
		args := append([]string{"clustersim", "-n", "3000", "-benchmarks", "gzip"}, flags...)
		cmd := exec.Command(bin, append(args, "fig2")...)
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}
	untimed := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.Contains(line, " took ") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}

	_, stderr, err := run("-deadline", "1ns", "-cache-dir", dir)
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("cancelled run: err = %v, want a non-zero exit; stderr:\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "rerun with -cache-dir "+dir) {
		t.Errorf("no resume hint naming %s:\n%s", dir, stderr)
	}
	if !strings.Contains(stderr, "sim jobs run: 0 ") {
		t.Errorf("cancelled run simulated:\n%s", stderr)
	}

	resumed, stderr, err := run("-cache-dir", dir)
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, stderr)
	}
	clean, stderr, err := run()
	if err != nil {
		t.Fatalf("uninterrupted run: %v\n%s", err, stderr)
	}
	if untimed(resumed) != untimed(clean) {
		t.Errorf("resumed run printed\n%s\nuninterrupted run printed\n%s", resumed, clean)
	}
}
