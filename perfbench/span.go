package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"clustersim/internal/engine"
)

// span is one traced interval around a call into a layer.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a root span
	Run    string           `json:"run"`    // spans of one pass or job share it
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"` // since the recorder's origin
	End    time.Duration    `json:"end_ns"`
	SelfNs int64            `json:"self_ns"` // filled in at write-out
	Engine map[string]int64 `json:"engine,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced passes share the traced code path.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// open is a started span; end closes it.
type open struct {
	r      *recorder
	id     int
	eng    *engine.Engine
	before engine.Summary
}

// begin starts a span. eng, when non-nil, has its Summary deltas over
// the span's interval attached to the span.
func (r *recorder) begin(name, run string, parent int, eng *engine.Engine) open {
	if r == nil {
		return open{}
	}
	sp := open{r: r, eng: eng}
	if eng != nil {
		sp.before = eng.Summary()
	}
	r.mu.Lock()
	sp.id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: sp.id, Parent: parent, Run: run, Name: name, Start: time.Since(r.origin)})
	r.mu.Unlock()
	return sp
}

// end closes the span and returns its duration.
func (sp open) end() time.Duration {
	if sp.r == nil {
		return 0
	}
	now := time.Since(sp.r.origin)
	var delta map[string]int64
	if sp.eng != nil {
		delta = summaryDelta(sp.before, sp.eng.Summary())
	}
	sp.r.mu.Lock()
	defer sp.r.mu.Unlock()
	s := &sp.r.spans[sp.id-1]
	s.End, s.Engine = now, delta
	return s.End - s.Start
}

// add records an already-finished interval, such as the queue and run
// times the server stamps on a job.
func (r *recorder) add(name, run string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
}

// durations returns every finished span's duration by name, in seconds.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// write computes every span's self time (its duration minus the part
// of it its children cover) and writes the spans as JSON to path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.SelfNs = int64(s.End-s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is how much of [lo, hi) the union of the spans' intervals
// covers, in nanoseconds.
func covered(lo, hi time.Duration, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return int64(total)
}

// summaryDelta is the change in the engine counters a span reports.
func summaryDelta(a, b engine.Summary) map[string]int64 {
	d := map[string]int64{
		"sim_hits":      b.SimHits - a.SimHits,
		"sim_disk_hits": b.SimDiskHits - a.SimDiskHits,
		"sim_misses":    b.SimMisses - a.SimMisses,
		"ana_misses":    b.AnaMisses - a.AnaMisses,
		"sched_misses":  b.SchedMisses - a.SchedMisses,
		"trace_misses":  b.TraceMisses - a.TraceMisses,
		"sim_wall_ns":   b.SimWallNs - a.SimWallNs,
		"ana_wall_ns":   b.AnaWallNs - a.AnaWallNs,
		"sched_wall_ns": b.SchedWallNs - a.SchedWallNs,
		"sim_insts":     b.SimInsts - a.SimInsts,
		"evictions":     b.Evictions - a.Evictions,
		"cache_bytes":   b.CacheBytes - a.CacheBytes,
	}
	for k, v := range d {
		if v == 0 {
			delete(d, k)
		}
	}
	return d
}

// writeSpans writes the traced pass's spans under the workdir.
func writeSpans(c config, o *outcome, rec *recorder) error {
	path := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	if err := rec.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	o.conditions["spans_file"] = path
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}
