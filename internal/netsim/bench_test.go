package netsim

import (
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/geo"
)

// BenchmarkBuildWorld builds the 6×4 km, three-layer AT&T world the
// netsim tests drive in: per-cell configuration, shadow fields and the
// spatial index.
func BenchmarkBuildWorld(b *testing.B) {
	g, err := carrier.NewGenerator("A")
	if err != nil {
		b.Fatal(err)
	}
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(6000, 4000))
	b.ReportAllocs()
	var cells int
	for i := 0; i < b.N; i++ {
		cells = len(BuildWorld(g, region, WorldOpts{Seed: 42, LTELayers: 3}).Cells)
	}
	b.ReportMetric(float64(cells), "cells")
}
