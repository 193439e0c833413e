package globalrand

import (
	"math/rand"
	"testing"
)

// Tests may build eager sources, e.g. as the reference stream in a
// differential test, but may not draw from the global source.
func TestReference(t *testing.T) {
	_ = rand.New(rand.NewSource(1)).Float64()
	_ = rand.Int63() // want "rand.Int63 draws from the process-global source"
}
