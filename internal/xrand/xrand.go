// Package xrand builds seeded math/rand generators whose streams are
// bit-identical to rand.New(rand.NewSource(seed)) but cost almost nothing
// to create.
//
// math/rand's source seeds eagerly: rngSource.Seed walks a Lehmer LCG
// x ← 48271·x mod (2³¹−1) for 1,841 steps to fill a 607-word register,
// about 15 µs and a 4.9 KB allocation per source. The simulator draws
// almost every per-cell parameter from a fresh generator that it
// discards after one or two draws, so that seeding dominated world
// building. Slot i of the register is three LCG outputs, at steps
// 20+3i+1..3, XORed with rngCooked[i]; the j-th draw (j < 273) reads only
// the untouched slots 333−j and 606−j. The source here therefore keeps
// just the normalised seed and computes those two slots on demand by
// jumping the LCG with a table of 48271ᵏ mod (2³¹−1). On draw 273, the
// first to read a slot an earlier draw wrote, it builds the full register,
// replays the draws so far and continues with math/rand's additive
// lagged-Fibonacci step.
package xrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
	// lcgWarmup is how many LCG steps Seed discards before slot 0.
	lcgWarmup = 20
	// defaultSeed replaces a seed that normalises to zero, as in Seed.
	defaultSeed = 89482311
)

// slotPow[i][k] is 48271^(lcgWarmup+3i+k+1) mod (2³¹−1): multiplying the
// normalised seed by it yields the k-th LCG output that Seed folds into
// register slot i.
var slotPow = func() (t [rngLen][3]uint32) {
	p := uint64(1)
	for k := 0; k < lcgWarmup; k++ {
		p = p * lcgMul % int32max
	}
	for i := range t {
		for k := range t[i] {
			p = p * lcgMul % int32max
			t[i][k] = uint32(p)
		}
	}
	return t
}()

// New returns a generator whose every method yields exactly what
// rand.New(rand.NewSource(seed)) would.
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// source is a lazily seeded math/rand rngSource. Until the register is
// built (vec == nil) it tracks only the normalised seed and the draw
// count; afterwards it is the ordinary register with its tap and feed.
type source struct {
	seed      uint64
	n         int
	vec       *[rngLen]int64
	tap, feed int
}

// Seed resets the source to the stream of rand.NewSource(seed),
// normalising the seed exactly as rngSource.Seed does.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = defaultSeed
	}
	*s = source{seed: uint64(seed)}
}

// slot computes register slot i as rngSource.Seed leaves it.
func (s *source) slot(i int) int64 {
	p := &slotPow[i]
	u := int64(s.seed*uint64(p[0])%int32max) << 40
	u ^= int64(s.seed*uint64(p[1])%int32max) << 20
	u ^= int64(s.seed * uint64(p[2]) % int32max)
	return u ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if s.n < rngTap {
			j := s.n
			s.n++
			return uint64(s.slot(rngLen-rngTap-1-j) + s.slot(rngLen-1-j))
		}
		s.build()
	}
	return s.step()
}

// build materialises the full register and replays the rngTap draws
// already served, leaving the source exactly where an eager one would be.
func (s *source) build() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.slot(i)
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for j := 0; j < rngTap; j++ {
		s.step()
	}
}

// step is rngSource.Uint64: the additive lagged-Fibonacci recurrence.
func (s *source) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
