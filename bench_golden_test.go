package mmlab

import (
	"encoding/json"
	"os"
	"testing"
)

// benchGoldenConfigs maps each committed BENCH_*.json campaign golden to
// the audibility radius that produced it: the country profile at 1.5×ISD
// and the seed profile at the seed's 4×ISD (recorded on the seed's linear
// scan and fixed-step loop, which the one indexed, event-driven path
// reproduces exactly). Both run the default campaign: 10000-cell arena,
// carrier A, 8 UEs, 30 simulated seconds, benchSeed.
var benchGoldenConfigs = []struct {
	file    string
	radius  float64
	profile string
}{
	{"BENCH_pr6.json", 1.5 * countryISD, "typed probe path"},
	{"BENCH_seed.json", 4 * countryISD, "seed profile"},
}

// TestCountryCampaignMatchesBenchGoldens proves the units migration is
// compile-time only on the probe path: re-running the BENCH campaign
// configuration must reproduce the committed goldens' cell and handoff
// counts exactly. A drift of even one handoff means a unit type changed
// runtime behavior (rounding, comparison, or arithmetic), which the
// byte-identical-outputs contract forbids.
func TestCountryCampaignMatchesBenchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("country-scale campaign; skipped with -short")
	}
	if *countryCells != 10000 || *countryUEs != 8 || *countryDurS != 30 ||
		*countryRadius != 0 {
		t.Skip("country flags overridden; the BENCH goldens pin the default config")
	}
	for _, tc := range benchGoldenConfigs {
		t.Run(tc.file, func(t *testing.T) {
			cells, handoffs := benchGoldenCampaign(t, tc.file)
			w := countryWorldAt(t, tc.radius)
			if got := len(w.Cells); got != cells {
				t.Errorf("%s: world has %d cells, golden %s recorded %d", tc.profile, got, tc.file, cells)
			}
			if got := runCountryCampaign(w, int64(*countryDurS)*1000, *countryUEs); got != handoffs {
				t.Errorf("%s: campaign produced %d handoffs, golden %s recorded %d", tc.profile, got, tc.file, handoffs)
			}
		})
	}
}

// benchGoldenCampaign reads the cells and handoffs metrics of
// BenchmarkCountryCampaign from a bench2json golden.
func benchGoldenCampaign(t *testing.T, path string) (cells, handoffs int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, r := range doc.Results {
		if r.Name != "BenchmarkCountryCampaign" {
			continue
		}
		c, cok := r.Metrics["cells"]
		h, hok := r.Metrics["handoffs"]
		if !cok || !hok {
			t.Fatalf("%s: BenchmarkCountryCampaign lacks cells/handoffs metrics", path)
		}
		return int(c), int(h)
	}
	t.Fatalf("%s: no BenchmarkCountryCampaign result", path)
	return 0, 0
}
