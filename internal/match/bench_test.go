package match

import (
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/pattern"
)

// benchLevels builds a synthetic lattice: parents are every symbol pair,
// children right-extend each parent with every symbol at gap 0 and 1.
func benchLevels(m int) (parents, children []pattern.Pattern) {
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			parents = append(parents, pattern.MustNew(pattern.Symbol(a), pattern.Symbol(b)))
		}
	}
	for _, p := range parents[:min(len(parents), 32)] {
		for d := 0; d < m; d++ {
			children = append(children, pattern.Extend(p, 0, pattern.Symbol(d)))
			children = append(children, pattern.Extend(p, 1, pattern.Symbol(d)))
		}
	}
	return parents, children
}

func BenchmarkCompiledMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomDense(b, 16, 0.3, rng)
	seq := randomSample(1, 200, 200, 16, rng)[0]
	p := pattern.MustNew(1, pattern.Eternal, 5, 9, pattern.Eternal, 3)
	cp, err := Compile(c, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Match(seq)
	}
}

func BenchmarkCompileSetObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := randomDense(b, 16, 0.3, rng)
	_, children := benchLevels(16)
	sample := randomSample(64, 40, 60, 16, rng)
	cps := compileAll(b, c, children)
	sums := make([]float64, len(cps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addMatches(sums, cps, sample[i%len(sample)])
	}
}

// BenchmarkIncrementalExtend measures scoring one child level through the
// prefix-extension cache; the untimed section rebuilds the parent cache.
func BenchmarkIncrementalExtend(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := randomDense(b, 16, 0.3, rng)
	sample := randomSample(64, 40, 60, 16, rng)
	parents, children := benchLevels(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: 1})
		if _, _, err := inc.ValueLevel(parents); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := inc.ValueLevel(children); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalExtendScratch is the same child level scored without a
// parent cache (budget 1 byte forces the compiled fallback) — the baseline
// BenchmarkIncrementalExtend should beat.
func BenchmarkIncrementalExtendScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := randomDense(b, 16, 0.3, rng)
	sample := randomSample(64, 40, 60, 16, rng)
	parents, children := benchLevels(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: 1, Budget: 1})
		if _, _, err := inc.ValueLevel(parents); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := inc.ValueLevel(children); err != nil {
			b.Fatal(err)
		}
	}
}

// deepLattice is a deep-sample-shaped Phase 2 workload: 300 sequences of
// length 150–220 over 20 symbols with two planted length-10 motifs under 5%
// uniform noise, and the levels a level-wise search with gaps up to 1 walks
// over them — each level right-extends every previous-level pattern valued
// at least 0.2 by every symbol at gap 0 and 1, up to total length 8.
// The levels are fixed once, so every benchmark iteration replays the same
// lattice.
func deepLattice(b *testing.B) (compat.Source, [][]pattern.Symbol, [][]pattern.Pattern) {
	b.Helper()
	const m = 20
	rng := rand.New(rand.NewSource(11))
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: 300, M: m, MinLen: 150, MaxLen: 220, NumMotifs: 2, MotifLen: 10, PlantProb: 0.55,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, m, 0.05, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compat.UniformNoise(m, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	sample := make([][]pattern.Symbol, noisy.Len())
	for i := range sample {
		sample[i] = noisy.Seq(i)
	}
	inc := NewIncremental(c, sample, IncrementalOptions{Budget: -1})
	defer inc.Release()
	var levels [][]pattern.Pattern
	level := make([]pattern.Pattern, m)
	for d := range level {
		level[d] = pattern.Pattern{pattern.Symbol(d)}
	}
	for len(level) > 0 {
		levels = append(levels, level)
		vals, _, err := inc.ValueLevel(level)
		if err != nil {
			b.Fatal(err)
		}
		var next []pattern.Pattern
		for i, p := range level {
			if vals[i] < 0.2 {
				continue
			}
			for gap := 0; gap <= 1; gap++ {
				for d := 0; d < m; d++ {
					if q := pattern.Extend(p, gap, pattern.Symbol(d)); len(q) <= 8 {
						next = append(next, q)
					}
				}
			}
		}
		level = next
	}
	return c, sample, levels
}

func BenchmarkIncrementalDeepLattice(b *testing.B) {
	c, sample, levels := deepLattice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: 2})
		for _, lv := range levels {
			if _, _, err := inc.ValueLevel(lv); err != nil {
				b.Fatal(err)
			}
		}
		inc.Release()
	}
}
