// Package globalrand is mmvet analyzer testdata: package-level
// math/rand draws are banned everywhere; seeded *rand.Rand flows are
// legal.
package globalrand

import "math/rand"

func draws() (int, float64) {
	a := rand.Intn(10)                 // want "rand.Intn draws from the process-global source"
	b := rand.Float64()                // want "rand.Float64 draws from the process-global source"
	rand.Shuffle(a, func(i, j int) {}) // want "rand.Shuffle draws from the process-global source"
	return a, b
}

// Seeded generators are the sanctioned pattern, and methods on the
// injected *rand.Rand are not package-level draws; but outside
// internal/xrand and tests they come from xrand.New, not the eager
// rand.NewSource.
func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // want "NewSource seeds all 607 words eagerly; use xrand.New"
	return rng.Float64() + float64(rng.Intn(3))
}

func annotated() int {
	//mmvet:allow globalrand jitter for a log line, never feeds output
	return rand.Intn(100)
}
