// Command mmbench is the repository benchmark. One invocation runs one
// workload — country (drives across a country-scale world), d1 (the D1
// drive campaign) or ingest (mmlabd over loopback TCP) — for a fixed
// measuring time, checks that every output is correct, and prints one
// JSON result line. From the repository root:
//
//	bash mmbench/run.sh -workload country -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the run records spans around the benchmark's calls into each layer,
// writes them with a CPU-profile top-10 summary under .bench_build/out/,
// and reports the per-layer metrics instead. See README.md for the
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's shared state: the workload inputs' seed, the
// measuring budget, the tracer (nil on untraced runs), and the running
// metric and failure tallies.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	workers  int
	tr       *tracer
	dir      string // directory for this run's files

	metrics   map[string]metric
	attempted int
	failed    int
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// fail records one failed operation and says why on stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.note(format, args...)
}

// note reports a failure on stderr; the caller counts it.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mmbench: %s: FAIL: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// check records one attempted operation that fails unless ok holds.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// workload is one named scenario; run measures the end-to-end metrics
// and trace the per-layer ones.
type workload struct {
	run, trace func(*bench) error
}

var workloads = map[string]workload{
	"country": {runCountry, traceCountry},
	"d1":      {runD1, traceD1},
	"ingest":  {runIngest, traceIngest},
}

func main() {
	name := flag.String("workload", "", "workload to run: country, d1 or ingest")
	seed := flag.Int64("seed", 1, "seed the workload inputs derive from")
	seconds := flag.Int("seconds", 5, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	pin := flag.String("pin", "", "print pinned correctness values for seeds FROM-TO of the named workload and exit")
	flag.Parse()

	if *pin != "" {
		if err := printPins(*name, *pin); err != nil {
			fmt.Fprintln(os.Stderr, "mmbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: mmbench -workload country|d1|ingest -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := checkRepo(); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		workers:  runtime.NumCPU(),
		dir:      filepath.Join(".bench_build", "out", fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)),
		metrics:  map[string]metric{},
	}
	if err := os.RemoveAll(b.dir); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
	var err error
	if *trace == 1 {
		b.tr = newTracer(fmt.Sprintf("%s-%d", *name, *seed))
		err = w.trace(b)
		if err == nil {
			err = b.tr.write(filepath.Join(b.dir, "spans.jsonl"))
		}
		if err == nil {
			err = setLineCounts(b)
		}
		b.set("max_rss_mb", "MB", maxRSSMB())
		fillLayerMetrics(b)
	} else {
		err = w.run(b)
	}
	if err != nil {
		// An error means the run could not measure at all (as opposed to
		// a measured output mismatch): no result line.
		fmt.Fprintf(os.Stderr, "mmbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if b.attempted == 0 {
		b.check(false, "no operation was attempted")
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checkRepo fails fast when the benchmark runs outside a checkout of the
// repository it measures.
func checkRepo() error {
	for _, p := range []string{"go.mod", "internal", "cmd"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not at the root of a repository checkout: %w", err)
		}
	}
	return nil
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
