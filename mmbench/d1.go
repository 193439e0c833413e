package main

import (
	"bytes"
	"context"
	"runtime/debug"
	"sync"
	"time"

	"mmlab/internal/carrier"
	"mmlab/internal/dataset"
	"mmlab/internal/experiment"
	"mmlab/internal/geo"
	"mmlab/internal/netsim"
)

// The d1 workload: experiment.BuildD1 at the quota-floor scale, where
// each of the 8 campaigns (4 carriers × active/idle) stops at its
// 10-record floor, on nproc workers.
const (
	d1Scale     = 0.001
	d1Campaign  = 10 // records per campaign at the floor
	d1Campaigns = 8
	d1SetupReps = 3
	// d1ReplaySteps bounds the probe replay per drive route.
	d1ReplaySteps = 3000
)

// d1Carriers is BuildD1's campaign order; each carrier runs an active
// then an idle campaign.
var d1Carriers = []string{"A", "T", "V", "S"}

// d1Region is BuildD1's standard drive arena.
var d1Region = geo.NewRect(geo.Pt(0, 0), geo.Pt(7000, 4500))

// d1Worlds is the d1 set-up: each carrier's generator and the world of
// its active campaign's first drive (run 0 of BuildD1's layout: seed
// base+1, city C1, 3 LTE layers) — the per-drive world build the
// campaign repeats for every run.
func d1Worlds(seed int64, tr *tracer) ([]*netsim.World, error) {
	var worlds []*netsim.World
	for _, acr := range d1Carriers {
		gen, err := carrier.NewGenerator(acr)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("netsim.BuildWorld", nil)
		w := netsim.BuildWorld(gen, d1Region, netsim.WorldOpts{Seed: seed + int64(len(acr)), City: "C1", LTELayers: 3})
		sp.attr("cells", float64(len(w.Cells)))
		sp.end()
		worlds = append(worlds, w)
	}
	return worlds, nil
}

// d1Build is one BuildD1 with the time each campaign finished.
type d1Build struct {
	d         *dataset.D1
	wall      time.Duration
	campaigns []float64 // ms per campaign
	digest    string
}

// buildD1 runs the campaign on workers workers and checks the dataset's
// shape: every campaign at its floor, in BuildD1's order.
func buildD1(b *bench, workers int) (d1Build, error) {
	var res d1Build
	var mu sync.Mutex
	var ends []time.Duration
	start := time.Now()
	progress := func(done, _ int) {
		mu.Lock()
		defer mu.Unlock()
		for len(ends) < d1Campaigns && done >= (len(ends)+1)*d1Campaign {
			ends = append(ends, time.Since(start))
		}
	}
	sp := b.tr.begin("experiment.BuildD1", nil)
	sp.attr("workers", float64(workers))
	d, err := experiment.BuildD1(context.Background(), experiment.D1Options{
		Scale: d1Scale, Seed: b.seed, Workers: workers, Progress: progress,
	})
	res.wall = time.Since(start)
	sp.end()
	if err != nil {
		return res, err
	}
	res.d = d
	sp.attr("records", float64(len(d.Records)))
	mu.Lock()
	prev := time.Duration(0)
	for _, e := range ends {
		res.campaigns = append(res.campaigns, millis(e-prev))
		prev = e
	}
	mu.Unlock()

	var buf bytes.Buffer
	if err := dataset.WriteD1(&buf, d.Records); err != nil {
		return res, err
	}
	res.digest = digest(buf.Bytes())
	ok := len(d.Records) == d1Campaign*d1Campaigns && len(res.campaigns) == d1Campaigns
	for i := 0; ok && i < len(d.Records); i++ {
		c := i / d1Campaign
		kind := "active"
		if c%2 == 1 {
			kind = "idle"
		}
		r := d.Records[i]
		ok = r.Carrier == d1Carriers[c/2] && r.Kind == kind
	}
	b.check(ok, "D1 on %d workers: %d records over %d campaigns, not %d×%d in campaign order", workers, len(d.Records), len(res.campaigns), d1Campaigns, d1Campaign)
	return res, nil
}

// checkPinnedD1 compares the dataset digest with the seed's pin, if it
// has one.
func checkPinnedD1(b *bench, digest string) {
	if want, ok := d1Pins[b.seed]; ok {
		b.check(digest == want, "D1 digest %s, pinned %s", digest, want)
	}
}

// d1SetupTimes runs the set-up d1SetupReps times and returns each time.
func d1SetupTimes(b *bench) ([]float64, error) {
	var times []float64
	for k := 0; k < d1SetupReps; k++ {
		start := time.Now()
		if _, err := d1Worlds(b.seed, b.tr); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		// Return each set-up's worlds to the OS, so peak memory is the
		// campaign's, not set-up garbage.
		debug.FreeOSMemory()
	}
	return times, nil
}

func runD1(b *bench) error {
	setups, err := d1SetupTimes(b)
	if err != nil {
		return err
	}
	b.set("setup_s", "s", median(setups))

	var walls, campaigns []float64
	var first d1Build
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < b.seconds {
		res, err := buildD1(b, b.workers)
		if err != nil {
			return err
		}
		if len(walls) == 0 {
			first = res
		} else {
			b.check(res.digest == first.digest, "D1 digest changed between builds: %s, then %s", first.digest, res.digest)
		}
		walls = append(walls, res.wall.Seconds())
		campaigns = append(campaigns, res.campaigns...)
	}
	checkPinnedD1(b, first.digest)
	b.set("job_s", "s", median(walls))
	b.set("rate_per_s", "1/s", float64(len(first.d.Records))/median(walls))
	b.set("op_p50_ms", "ms", median(campaigns))
	b.set("op_tail_ms", "ms", quantile(campaigns, 0.9))
	return nil
}

// traceD1 profiles the set-up, the replays and one D1 build on nproc
// workers, then builds D1 on one worker for sim.parallel_efficiency. The
// tracing overhead is measured on the set-up, run d1SetupReps times
// untraced and traced: a third D1 build only for it would add half a
// minute to every traced run.
func traceD1(b *bench) error {
	tr := b.tr
	b.tr = nil
	plainSetup, err := d1SetupTimes(b)
	b.tr = tr
	if err != nil {
		return err
	}
	prof, err := startProfile(b.dir)
	if err != nil {
		return err
	}
	tracedSetup, err := d1SetupTimes(b)
	if err != nil {
		return err
	}
	worlds, err := d1Worlds(b.seed, nil)
	if err != nil {
		return err
	}
	var sets []configSet
	for _, w := range worlds {
		sets = append(sets, worldConfigs(w))
	}
	if err := replayConfig(b, sets); err != nil {
		return err
	}
	// Run 0's route: a 45 km/h drive along the middle site row, lane
	// offset -240 m.
	var routes []route
	for _, w := range worlds {
		r := netsim.RowRoute(w, 45, -240)
		routes = append(routes, route{w, r, r.Duration()})
	}
	replayProbe(b, routes, d1ReplaySteps)
	traced, err := buildD1(b, b.workers)
	if err != nil {
		return err
	}
	if err := prof.stop(); err != nil {
		return err
	}
	one, err := buildD1(b, 1)
	if err != nil {
		return err
	}
	b.check(one.digest == traced.digest, "D1 digests differ: %d workers %s, 1 worker %s", b.workers, traced.digest, one.digest)
	checkPinnedD1(b, traced.digest)
	b.set("netsim.BuildWorld.s", "s", median(b.tr.durations("netsim.BuildWorld"))/1e9)
	b.set("experiment.BuildD1.records", "count", float64(len(traced.d.Records)))
	b.set("sim.parallel_efficiency", "ratio", one.wall.Seconds()/(float64(b.workers)*traced.wall.Seconds()))
	b.set("trace.overhead_pct", "%", 100*(median(tracedSetup)-median(plainSetup))/median(plainSetup))
	return nil
}
