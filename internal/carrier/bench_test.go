package carrier

import "testing"

// BenchmarkGeneratorConfig generates one cell's full configuration per
// op, cycling through the sites of a small AT&T fleet so city-, channel-
// and cell-scoped draws all vary as they do in a world build.
func BenchmarkGeneratorConfig(b *testing.B) {
	f, err := BuildFleet("A", 0.02)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Gen.Config(f.Sites[i%len(f.Sites)], 0)
	}
}
