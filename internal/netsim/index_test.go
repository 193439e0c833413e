package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"mmlab/internal/geo"
)

// bruteAudible is the reference audibility query: every cell within the
// measurement radius, scored and ordered by the same rules as
// Probe.AudibleScored (RSRP descending, ties by ascending CellID).
func bruteAudible(w *World, pos geo.Point) []AudibleCell {
	var out []AudibleCell
	for _, c := range w.Cells {
		if pos.Dist(c.Site.Pos) <= w.measureRadius {
			out = append(out, AudibleCell{c, w.RSRPAt(c, pos)})
		}
	}
	slices.SortFunc(out, func(a, b AudibleCell) int {
		switch {
		case a.RSRP > b.RSRP:
			return -1
		case a.RSRP < b.RSRP:
			return 1
		case a.Cell.Site.Identity.CellID < b.Cell.Site.Identity.CellID:
			return -1
		default:
			return 1
		}
	})
	return out
}

// TestAudibleGridMatchesLinear is the differential property test for the
// spatial index: across world shapes and randomized positions (inside the
// region, at its edges, and beyond it), the indexed probe must return the
// identical scored cell sequence as a brute-force scan of every cell.
func TestAudibleGridMatchesLinear(t *testing.T) {
	shapes := []WorldOpts{
		{LTELayers: 3},
		{LTELayers: 1, ISD: 500},
		{LTELayers: 2, IncludeNonLTE: true, MeasureRadius: 1200},
		{LTELayers: 3, Seed: 9, MeasureRadius: 5600},
	}
	for _, shape := range shapes {
		w := testWorld(t, "A", shape)
		rng := rand.New(rand.NewSource(17))
		probe := w.NewProbe()
		for q := 0; q < 150; q++ {
			pos := geo.Pt(-2000+rng.Float64()*10000, -2000+rng.Float64()*8000)
			got := probe.AudibleScored(pos)
			want := bruteAudible(w, pos)
			if len(got) != len(want) {
				t.Fatalf("shape %+v pos %v: %d audible via index, %d via scan",
					shape, pos, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shape %+v pos %v: rank %d: index says %v/%v, scan says %v/%v",
						shape, pos, i, got[i].Cell.Site.Identity, got[i].RSRP,
						want[i].Cell.Site.Identity, want[i].RSRP)
				}
			}
		}
	}
}
