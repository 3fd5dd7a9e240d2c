// Command perfbench is clustersim's end-to-end and per-layer benchmark.
//
// One run measures one workload in a fresh process at GOMAXPROCS=1:
//
//	perfbench --workload paper|stream|serve --seed N --seconds S --trace 0|1
//
// It drives the program only through its public entry points, checks
// every output byte against a reference, and prints one JSON object as
// its last line of standard output: the end-to-end metrics with
// --trace 0, the per-layer metrics of an extra traced pass with
// --trace 1. README.md explains the workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     uint64 // the --seed argument; program seeds derive from it
	seconds  int
	trace    bool
	scale    string // "full"; the tests set "tiny"
	workdir  string // temp dirs and the span file live under it
	probe    *speedProbe
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	mismatches        []string          // one line per failed output check
	e2e               map[string]metric // end-to-end metrics, untraced passes
	samples           map[string]any    // per-pass values behind e2e
	traced            map[string]metric // end-to-end metrics of the traced pass
	layers            map[string]metric // per-layer metrics of the traced pass
	conditions        map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		e2e:        map[string]metric{},
		traced:     map[string]metric{},
		layers:     map[string]metric{},
		conditions: map[string]any{},
	}
}

// fail records a failed operation with the reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(c config, o *outcome) error{
	"paper":  runPaper,
	"stream": runStream,
	"serve":  runServe,
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ok, err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	c := config{scale: "full"}
	var traceFlag int
	fs.StringVar(&c.workload, "workload", "", "workload: paper, stream or serve")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed; every program input derives from it")
	fs.IntVar(&c.seconds, "seconds", 10, "nominal measurement time; sets how many fixed-work passes run")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for temp dirs and the span file")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown workload %q (have: paper, stream, serve)", c.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	c.trace = traceFlag == 1
	if c.seconds < 1 {
		return c, fmt.Errorf("--seconds must be at least 1, got %d", c.seconds)
	}
	return c, nil
}

// run executes one benchmark run and writes its report to w. It returns
// false when any output check failed; the report is printed either way.
func run(c config, w io.Writer) (bool, error) {
	runtime.GOMAXPROCS(1)
	c.probe = &speedProbe{}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return false, err
	}
	o := newOutcome()
	o.conditions = map[string]any{
		"go_version":   runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"workload":     c.workload,
		"seed":         c.seed,
		"scale":        c.scale,
		"seconds":      c.seconds,
		"traced":       c.trace,
		"probe_ref_ms": probeRefMs,
	}
	if err := workloads[c.workload](c, o); err != nil {
		return false, err
	}
	if o.attempted < 1 {
		return false, errors.New("no operation attempted")
	}
	for _, m := range o.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}
	res := result{
		Correct:   len(o.mismatches) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.e2e,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"conditions": o.conditions}); err != nil {
		return false, err
	}
	if err := enc.Encode(map[string]any{"pass_samples": o.samples}); err != nil {
		return false, err
	}
	if c.trace {
		// The per-layer metrics carry the difference as tracing.overhead.*.
		if err := enc.Encode(map[string]any{"end_to_end": o.e2e, "traced_end_to_end": o.traced}); err != nil {
			return false, err
		}
		res.Metrics = o.layers
	}
	return res.Correct, enc.Encode(res)
}

// passes is how many fixed-work passes fit the nominal measurement time,
// given the nominal cost of one pass on the reference machine. The
// count depends only on the arguments, never on measured speed, so both
// sides of a comparison do identical work.
func passes(seconds int, nominal float64) int {
	n := int(math.Round(float64(seconds) / nominal))
	if n < 1 {
		n = 1
	}
	return n
}

// programSeed derives a program-facing seed from the benchmark seed
// (SplitMix64), so every --seed value, 0 included, selects distinct,
// valid inputs.
func programSeed(seed uint64, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// tempDir makes a fresh directory under the run's workdir; the returned
// cleanup removes it.
func tempDir(c config, pattern string) (string, func(), error) {
	root := filepath.Join(c.workdir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// digest is the hex SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
