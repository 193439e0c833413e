package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"mmlab/internal/carrier"
	"mmlab/internal/geo"
	"mmlab/internal/mobility"
	"mmlab/internal/netsim"
	"mmlab/internal/sim"
	"mmlab/internal/traffic"
)

// The country workload: one carrier-A world of about 10⁴ cells, built
// once as set-up, then batches of serial highway drives across it. The
// world is the committed BENCH_pr6.json campaign world (root package
// bench_country_test.go); the drives derive from the workload seed.
const (
	countryISD       = 700.0
	countryCells     = 10000 // target; the hex lattice lands on 10,067
	countryWorldSeed = 7     // the bench world's seed
	countryDurMs     = 30000 // simulated time per drive
	countryBatch     = 128   // drives per batch
	countrySpeedKmh  = 100
	countrySetupReps = 3
	// goldenCells and goldenHandoffs are the committed BENCH_pr6.json
	// BenchmarkCountryCampaign figures: 8 drives × 30 s on the bench
	// world give 42 handoffs.
	goldenCells    = 10067
	goldenDrives   = 8
	goldenHandoffs = 42
	// probeStepMs is the UE measurement period the replays sample at.
	probeStepMs = 40
)

// countryRegion is the bench arena sized so a 3-layer deployment lands
// near countryCells sites.
func countryRegion() geo.Rect {
	rowStep := countryISD * math.Sqrt(3) / 2
	side := math.Sqrt(float64(countryCells)/3*countryISD*rowStep) - 2*countryISD
	return geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
}

// buildCountryWorld builds the bench world on a fresh generator.
func buildCountryWorld(tr *tracer) (*netsim.World, error) {
	gen, err := carrier.NewGenerator("A")
	if err != nil {
		return nil, err
	}
	sp := tr.begin("netsim.BuildWorld", nil)
	w := netsim.BuildWorld(gen, countryRegion(), netsim.WorldOpts{
		Seed:          countryWorldSeed,
		LTELayers:     3,
		ISD:           countryISD,
		MeasureRadius: 1.5 * countryISD,
	})
	sp.attr("cells", float64(len(w.Cells)))
	sp.end()
	return w, nil
}

// drive is one planned highway drive.
type drive struct {
	start   geo.Point
	heading float64
	seed    int64
}

func (d drive) move() mobility.Model { return mobility.NewLinear(d.start, d.heading, countrySpeedKmh) }

// countryDrives plans batch k of the run: start points spread over the
// arena interior, headings and UE seeds, all from the workload seed.
func countryDrives(region geo.Rect, seed int64, k int) []drive {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, k)))
	out := make([]drive, countryBatch)
	for j := range out {
		out[j] = drive{
			start: geo.Pt(
				region.Min.X+(0.05+0.9*rng.Float64())*region.Width(),
				region.Min.Y+(0.05+0.9*rng.Float64())*region.Height()),
			heading: rng.Float64() * 2 * math.Pi,
			seed:    rng.Int63(),
		}
	}
	return out
}

// goldenDrive is drive j of the committed bench campaign.
func goldenDrive(region geo.Rect, j int) drive {
	fx := math.Mod(float64(j)*0.61803398874989485, 1)
	fy := math.Mod(float64(j)*0.38196601125010515+0.5/float64(j+1), 1)
	return drive{
		start: geo.Pt(
			region.Min.X+(0.05+0.9*fx)*region.Width(),
			region.Min.Y+(0.05+0.9*fy)*region.Height()),
		heading: float64(j%8) * math.Pi / 4,
		seed:    sim.DeriveSeed(countryWorldSeed, j),
	}
}

// runDrive runs one drive and checks its handoff log: times inside the
// drive in order, every target a world cell different from its source.
// It returns the handoff count and a digest of the log.
func runDrive(w *netsim.World, d drive) (int, string, error) {
	res := netsim.RunDrive(w, d.move(), countryDurMs, netsim.UEOpts{Seed: d.seed, Active: true, App: traffic.Speedtest{}})
	h := sha256.New()
	var last int64
	for i, ho := range res.Handoffs {
		t := int64(ho.Time)
		if t < last || t > countryDurMs {
			return 0, "", fmt.Errorf("handoff %d at %d ms out of order or outside the drive", i, t)
		}
		if ho.From.CellID == ho.To.CellID {
			return 0, "", fmt.Errorf("handoff %d from cell %d to itself", i, ho.From.CellID)
		}
		if _, ok := w.CellByID(ho.To.CellID); !ok {
			return 0, "", fmt.Errorf("handoff %d to unknown cell %d", i, ho.To.CellID)
		}
		last = t
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:8], uint64(t))
		binary.LittleEndian.PutUint32(rec[8:12], ho.From.CellID)
		binary.LittleEndian.PutUint32(rec[12:], ho.To.CellID)
		h.Write(rec[:])
	}
	return len(res.Handoffs), hex.EncodeToString(h.Sum(nil)), nil
}

// countrySetup builds the world countrySetupReps times, freeing each
// before the next so peak memory is one world, and returns the last with
// the median build time.
func countrySetup() (*netsim.World, float64, error) {
	var w *netsim.World
	var times []float64
	for k := 0; k < countrySetupReps; k++ {
		w = nil
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if w, err = buildCountryWorld(nil); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

// checkGolden re-runs the committed 8×30 s bench campaign on the world.
func checkGolden(b *bench, w *netsim.World) {
	b.check(len(w.Cells) == goldenCells, "world has %d cells, BENCH_pr6.json recorded %d", len(w.Cells), goldenCells)
	total := 0
	for j := 0; j < goldenDrives; j++ {
		n, _, err := runDrive(w, goldenDrive(w.Region, j))
		if err != nil {
			b.fail("golden drive %d: %v", j, err)
		}
		total += n
	}
	b.check(total == goldenHandoffs, "golden campaign gave %d handoffs, BENCH_pr6.json recorded %d", total, goldenHandoffs)
}

// batchResult is one batch of drives.
type batchResult struct {
	wall     time.Duration
	perDrive []float64 // ms
	handoffs int
	first    string // digest of drive 0's handoff log
}

// runBatch runs batch k's drives serially, each a span under parent.
func runBatch(b *bench, w *netsim.World, k int, parent *span) batchResult {
	var res batchResult
	start := time.Now()
	for j, d := range countryDrives(w.Region, b.seed, k) {
		sp := b.tr.begin("netsim.RunDrive", parent)
		t := time.Now()
		n, dig, err := runDrive(w, d)
		res.perDrive = append(res.perDrive, millis(time.Since(t)))
		sp.attr("handoffs", float64(n))
		sp.end()
		b.check(err == nil, "batch %d drive %d: %v", k, j, err)
		res.handoffs += n
		if j == 0 {
			res.first = dig
		}
	}
	res.wall = time.Since(start)
	return res
}

// checkBatch0 pins batch 0's handoff total for seeds with a recorded
// value.
func checkBatch0(b *bench, handoffs int) {
	if want, ok := countryPins[b.seed]; ok {
		b.check(handoffs == want, "batch 0 gave %d handoffs, pinned %d", handoffs, want)
	}
}

func runCountry(b *bench) error {
	w, setup, err := countrySetup()
	if err != nil {
		return err
	}
	b.set("setup_s", "s", setup)
	checkGolden(b, w)

	var walls, perDrive []float64
	var first string
	var total time.Duration
	drives := 0
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < b.seconds; k++ {
		res := runBatch(b, w, k, nil)
		if k == 0 {
			checkBatch0(b, res.handoffs)
			first = res.first
		}
		walls = append(walls, res.wall.Seconds())
		perDrive = append(perDrive, res.perDrive...)
		total += res.wall
		drives += len(res.perDrive)
	}
	// Drives on a shared world must not depend on what ran before them.
	_, again, err := runDrive(w, countryDrives(w.Region, b.seed, 0)[0])
	b.check(err == nil && again == first, "drive 0 re-run differs (err %v)", err)

	b.set("job_s", "s", median(walls))
	b.set("rate_per_s", "1/s", float64(drives)*countryDurMs/1000/total.Seconds())
	b.set("op_p50_ms", "ms", median(perDrive))
	b.set("op_tail_ms", "ms", quantile(perDrive, 0.9))
	return nil
}

func traceCountry(b *bench) error {
	prof, err := startProfile(b.dir)
	if err != nil {
		return err
	}
	w, err := buildCountryWorld(b.tr)
	if err != nil {
		return err
	}
	if err := replayConfig(b, []configSet{worldConfigs(w)}); err != nil {
		return err
	}
	checkGolden(b, w)
	root := b.tr.begin("country.batch", nil)
	traced := runBatch(b, w, 0, root)
	root.end()
	checkBatch0(b, traced.handoffs)
	var routes []route
	for _, d := range countryDrives(w.Region, b.seed, 0)[:16] {
		routes = append(routes, route{w, d.move(), countryDurMs})
	}
	replayProbe(b, routes, countryDurMs/probeStepMs+1)
	if err := prof.stop(); err != nil {
		return err
	}

	// The same batch once more with spans and profiling off.
	tr := b.tr
	b.tr = nil
	plain := runBatch(b, w, 0, nil)
	b.tr = tr
	busy := b.tr.total("netsim.RunDrive")
	buildS := b.tr.total("netsim.BuildWorld")
	b.set("netsim.BuildWorld.s", "s", buildS.Seconds())
	b.set("netsim.RunDrive.busy_s", "s", busy.Seconds())
	b.set("netsim.handoffs", "count", float64(traced.handoffs))
	b.set("trace.overhead_pct", "%", 100*(traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())
	return nil
}
