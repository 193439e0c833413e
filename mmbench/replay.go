package main

import (
	"math"
	"reflect"
	"time"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/geo"
	"mmlab/internal/mobility"
	"mmlab/internal/netsim"
	"mmlab/internal/radio"
	"mmlab/internal/units"
)

// route is one drive path through a world.
type route struct {
	w     *netsim.World
	move  mobility.Model
	durMs int64
}

// replayProbe replays the audibility query along each route at the UE
// measurement step (at most maxSteps positions per route), then the two
// radio calls every audible cell costs at those positions: the shadow
// field and the COST231-Hata path loss.
func replayProbe(b *bench, routes []route, maxSteps int) {
	type stop struct {
		p   *netsim.Probe
		pos geo.Point
	}
	var stops []stop
	for _, r := range routes {
		p := r.w.NewProbe()
		for t, k := int64(0), 0; t <= r.durMs && k < maxSteps; t, k = t+probeStepMs, k+1 {
			stops = append(stops, stop{p, r.move.At(t)})
		}
	}
	sp := b.tr.begin("netsim.Probe.AudibleScored", nil)
	start := time.Now()
	cells := 0
	for _, s := range stops {
		cells += len(s.p.AudibleScored(s.pos))
	}
	elapsed := time.Since(start)
	sp.attr("calls", float64(len(stops)))
	sp.end()
	b.set("netsim.Probe.AudibleScored.us_per_call", "us", float64(elapsed)/float64(time.Microsecond)/float64(len(stops)))
	b.set("netsim.Probe.AudibleScored.cells_per_call", "count", float64(cells)/float64(len(stops)))

	type pair struct {
		c   *netsim.Cell
		pos geo.Point
	}
	const maxPairs = 300000
	var pairs []pair
	for _, s := range stops {
		for _, a := range s.p.AudibleScored(s.pos) {
			if len(pairs) < maxPairs {
				pairs = append(pairs, pair{a.Cell, s.pos})
			}
		}
	}

	sp = b.tr.begin("radio.ShadowField.At", nil)
	start = time.Now()
	var shadow units.Db
	for _, pr := range pairs {
		shadow += pr.c.Shadow.At(pr.pos.X, pr.pos.Y)
	}
	elapsed = time.Since(start)
	sp.attr("calls", float64(len(pairs)))
	sp.end()
	b.set("radio.ShadowField.At.ns_per_call", "ns", float64(elapsed)/float64(len(pairs)))

	model := radio.DefaultCOST231()
	sp = b.tr.begin("radio.COST231Hata.Loss", nil)
	start = time.Now()
	var loss units.Db
	for _, pr := range pairs {
		loss += model.Loss(units.Meters(pr.pos.Dist(pr.c.Site.Pos)), pr.c.FreqMHz)
	}
	elapsed = time.Since(start)
	sp.attr("calls", float64(len(pairs)))
	sp.end()
	b.set("radio.COST231Hata.Loss.ns_per_call", "ns", float64(elapsed)/float64(len(pairs)))
	b.check(!math.IsNaN(shadow.V()) && !math.IsNaN(loss.V()) && loss.V() > 0, "radio replay produced shadow %v dB, loss %v dB", shadow, loss)
}

// configSet is one carrier's sites, with the configurations they were
// built with where known.
type configSet struct {
	acronym string
	sites   []carrier.CellSite
	epoch   int
	want    []*config.CellConfig // nil: no expectation
}

// worldConfigs lists a world's sites and the configurations it holds.
func worldConfigs(w *netsim.World) configSet {
	set := configSet{acronym: w.Gen.Carrier.Acronym, epoch: w.Epoch}
	for _, c := range w.Cells {
		set.sites = append(set.sites, c.Site)
		set.want = append(set.want, c.Config)
	}
	return set
}

// replayConfig regenerates every site's configuration on a fresh
// generator per set, timing carrier.Generator.Config, and checks each
// against the configuration the site was built with where known.
func replayConfig(b *bench, sets []configSet) error {
	sp := b.tr.begin("carrier.Generator.Config", nil)
	calls := 0
	var elapsed time.Duration
	for _, set := range sets {
		gen, err := carrier.NewGenerator(set.acronym)
		if err != nil {
			return err
		}
		for i, site := range set.sites {
			t := time.Now()
			cfg := gen.Config(site, set.epoch)
			elapsed += time.Since(t)
			calls++
			if set.want != nil {
				b.check(reflect.DeepEqual(cfg, set.want[i]), "carrier.Generator.Config for cell %d differs from the world's", site.Identity.CellID)
			}
		}
	}
	sp.attr("calls", float64(calls))
	sp.end()
	b.set("carrier.Generator.Config.calls", "count", float64(calls))
	b.set("carrier.Generator.Config.us_per_call", "us", float64(elapsed)/float64(time.Microsecond)/float64(calls))
	return nil
}
