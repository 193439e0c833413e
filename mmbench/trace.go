package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one top-level operation
// share a trace id; Parent is the span that caused this one (0: none).
type span struct {
	Trace  string             `json:"trace"`
	ID     int                `json:"span"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // unix nanoseconds
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	began  time.Time
	tr     *tracer
	closed bool
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so measured code paths are the
// same in both modes.
type tracer struct {
	prefix string
	mu     sync.Mutex
	spans  []*span
	traces int
}

func newTracer(prefix string) *tracer { return &tracer{prefix: prefix} }

// begin opens a span named name under parent; a nil parent starts a new
// trace.
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Name: name, Start: now.UnixNano(), began: now, tr: t}
	if parent != nil {
		s.Trace, s.Parent = parent.Trace, parent.ID
	} else {
		t.traces++
		s.Trace = fmt.Sprintf("%s-%d", t.prefix, t.traces)
	}
	t.spans = append(t.spans, s)
	return s
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.began)
	s.tr.mu.Lock()
	s.End, s.closed = s.Start+d.Nanoseconds(), true
	s.tr.mu.Unlock()
}

// attr attaches a numeric attribute (a count, a size) to the span.
func (s *span) attr(key string, v float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
	s.tr.mu.Unlock()
}

// total sums the durations of every closed span named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.closed {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// durations lists the durations of every closed span named name, in
// opening order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.closed {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// attrs lists attribute key of every closed span named name that has
// it, in opening order.
func (t *tracer) attrs(name, key string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if v, ok := s.Attrs[key]; ok && s.Name == name && s.closed {
			out = append(out, v)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profile is a running CPU profile of the traced run.
type profile struct {
	f    *os.File
	path string
}

// startProfile starts CPU profiling into dir/cpu.pprof.
func startProfile(dir string) (*profile, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{f: f, path: path}, nil
}

// stop ends profiling and writes the top-10 summary beside the profile
// (cpu.top10.txt). The summary comes from `go tool pprof`; without a Go
// toolchain on PATH the file says so instead.
func (p *profile) stop() error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	top := filepath.Join(filepath.Dir(p.path), "cpu.top10.txt")
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=10", p.path).CombinedOutput()
	if err != nil {
		out = append(out, fmt.Sprintf("\ngo tool pprof failed: %v\n", err)...)
	}
	return os.WriteFile(top, out, 0o644)
}
