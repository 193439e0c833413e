package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// drawCounts straddle the lazy phase's end (rngTap) and the register's
// first wrap (rngLen), where a mistake in the replay would show.
var drawCounts = []int{1, rngTap - 1, rngTap, rngTap + 1, rngLen - 1, rngLen, 2000}

// edgeSeeds cover Seed's normalisation: zero, negatives, multiples of
// 2³¹−1 (which normalise to zero) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, int32max, -int32max, 2 * int32max, -2 * int32max,
	int32max + 1, -int32max - 1, 7 * int32max, math.MinInt64, math.MaxInt64,
	math.MinInt64 + 1, math.MaxInt64 - 1, defaultSeed, -defaultSeed,
}

// testSeeds is edgeSeeds plus thousands of seeds spread over int64.
func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// method draws one value through a named *rand.Rand method, widened to
// uint64 so streams compare bit for bit.
type method struct {
	name string
	draw func(r *rand.Rand) uint64
}

// methods are the Rand methods the simulator calls on seeded streams.
var methods = []method{
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) }},
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
	{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
}

// compare draws n values from both generators through m and reports the
// first divergence.
func compare(t *testing.T, seed int64, n int, m method) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got := New(seed)
	for i := 0; i < n; i++ {
		if w, g := m.draw(want), m.draw(got); w != g {
			t.Fatalf("seed %d %s draw %d: got %#x, math/rand %#x", seed, m.name, i, g, w)
		}
	}
}

func TestNewMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		for _, m := range methods {
			compare(t, seed, drawCounts[len(drawCounts)-1], m)
		}
	}
}

// TestDrawCountsMatch restarts at every boundary draw count so each one
// is the last draw of some stream, then mixes methods on one stream the
// way the carrier generator does.
func TestDrawCountsMatch(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, n := range drawCounts {
			for _, m := range methods {
				compare(t, seed, n, m)
			}
		}
		want, got := rand.New(rand.NewSource(seed)), New(seed)
		for i := 0; i < 2*rngLen; i++ {
			m := methods[i%len(methods)]
			if w, g := m.draw(want), m.draw(got); w != g {
				t.Fatalf("seed %d mixed draw %d (%s): got %#x, math/rand %#x", seed, i, m.name, g, w)
			}
		}
	}
}

func TestPermMatches(t *testing.T) {
	for _, seed := range edgeSeeds {
		for _, n := range []int{1, 5, 40, rngTap, rngLen + 3} {
			want, got := rand.New(rand.NewSource(seed)).Perm(n), New(seed).Perm(n)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d Perm(%d)[%d]: got %d, math/rand %d", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReseed covers rand.Rand.Seed, which resets a used source.
func TestReseed(t *testing.T) {
	want, got := rand.New(rand.NewSource(3)), New(3)
	for i := 0; i < rngLen; i++ {
		want.Int63()
		got.Int63()
	}
	want.Seed(-42)
	got.Seed(-42)
	for i := 0; i < rngLen; i++ {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("reseeded draw %d: got %d, math/rand %d", i, g, w)
		}
	}
}

// TestSource64 pins that rand.New sees a Source64, as it does for
// rand.NewSource, so Rand.Uint64 takes the same path.
func TestSource64(t *testing.T) {
	if _, ok := rand.Source(&source{}).(rand.Source64); !ok {
		t.Fatal("source does not implement rand.Source64")
	}
}

func FuzzNewMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(rngTap+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		compare(t, seed, int(n)%(3*rngLen), methods[int(n)%len(methods)])
	})
}

// BenchmarkNew measures building a generator and taking one draw, the
// simulator's dominant pattern, against math/rand's eager seeding.
func BenchmarkNew(b *testing.B) {
	b.Run("xrand", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += New(int64(i)).Float64()
		}
		_ = sink
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += rand.New(rand.NewSource(int64(i))).Float64()
		}
		_ = sink
	})
}
