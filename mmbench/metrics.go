package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// layerMetrics are the per-layer metrics every traced run reports, with
// their units; a layer the workload bypasses reports 0. The <package>.loc
// line counts follow them.
var layerMetrics = [][2]string{
	{"carrier.Generator.Config.calls", "count"},
	{"carrier.Generator.Config.us_per_call", "us"},
	{"netsim.BuildWorld.s", "s"},
	{"netsim.RunDrive.busy_s", "s"},
	{"netsim.handoffs", "count"},
	{"netsim.Probe.AudibleScored.us_per_call", "us"},
	{"netsim.Probe.AudibleScored.cells_per_call", "count"},
	{"radio.ShadowField.At.ns_per_call", "ns"},
	{"radio.COST231Hata.Loss.ns_per_call", "ns"},
	{"sim.parallel_efficiency", "ratio"},
	{"experiment.BuildD1.records", "count"},
	{"crawler.CrawlFleet.s", "s"},
	{"crawler.CrawlFleet.bytes", "bytes"},
	{"crawler.StreamParser.records_per_s", "1/s"},
	{"sib.StreamScanner.mb_per_s", "MB/s"},
	{"pipeline.CheckpointNow.p50_ms", "ms"},
	{"pipeline.CheckpointNow.p99_ms", "ms"},
	{"pipeline.checkpoint_bytes", "bytes"},
	{"pipeline.queue.shard_max", "count"},
	{"pipeline.queue.aggregate_max", "count"},
	{"pipeline.durable_lag_records_max", "count"},
	{"pipeline.Reference.s", "s"},
	{"pipeline.Shutdown.drain_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"max_rss_mb", "MB"},
}

// fillLayerMetrics reports 0 for every per-layer metric the workload did
// not set.
func fillLayerMetrics(b *bench) {
	for _, m := range layerMetrics {
		if _, ok := b.metrics[m[0]]; !ok {
			b.set(m[0], m[1], 0)
		}
	}
}

// locPackages are the packages whose non-test Go line counts the traced
// run reports as <name>.loc. A package that no longer exists reports 0;
// total.loc counts every package under internal/ and cmd/, listed or
// not.
var locPackages = []string{
	"internal/analysis", "internal/carrier", "internal/config", "internal/core",
	"internal/crawler", "internal/dataset", "internal/experiment", "internal/fault",
	"internal/geo", "internal/lint", "internal/mobility", "internal/netsim",
	"internal/pipeline", "internal/pipeline/feeder", "internal/predict",
	"internal/radio", "internal/sib", "internal/sim", "internal/stats",
	"internal/traffic", "internal/units", "internal/verify",
	"cmd/bench2json", "cmd/figures", "cmd/genfleet", "cmd/hosim", "cmd/mmlab",
	"cmd/mmlabd", "cmd/mmvet",
}

// locName maps a package directory to its metric name: internal/ is
// dropped and the remaining separators become dots (cmd/mmlabd →
// cmd.mmlabd.loc).
func locName(dir string) string {
	return strings.ReplaceAll(strings.TrimPrefix(dir, "internal/"), "/", ".") + ".loc"
}

// setLineCounts reports the non-test Go line count of each package.
func setLineCounts(b *bench) error {
	for _, dir := range locPackages {
		n, err := goLines(dir)
		if err != nil {
			return err
		}
		b.set(locName(dir), "count", float64(n))
	}
	total := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() {
				n, err := goLines(path)
				total += n
				return err
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	b.set("total.loc", "count", float64(total))
	return nil
}

// goLines counts the lines of the non-test .go files directly in dir; a
// missing dir counts 0.
func goLines(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			n++
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}
