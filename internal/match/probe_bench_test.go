package match

import (
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// probeBench is one probe batch over 400 in-memory sequences of length
// 24–40 under an all-positive m=20 matrix, in the two shapes border
// collapsing probes: scattered 4–5-patterns and sibling groups of 2-patterns.
func probeBench(b *testing.B, keys []string) (compat.Source, []pattern.Pattern, [][]pattern.Symbol) {
	rng := rand.New(rand.NewSource(7))
	c, err := compat.UniformNoise(20, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	ps := make([]pattern.Pattern, len(keys))
	for i, k := range keys {
		if ps[i], err = pattern.ParseKey(k); err != nil {
			b.Fatal(err)
		}
	}
	return c, ps, randomSample(400, 24, 40, 20, rng)
}

var (
	probeScattered = []string{"13,*,14,12,6", "13,7,*,12,6", "13,7,14,*,6", "13,7,14,12", "15,*,4,1,12", "15,2,*,1,12",
		"15,2,4,*,12", "15,2,4,1", "2,4,1,12", "7,14,12,6", "15,*,4,*,12", "15,*,4,1"}
	probeSiblings = []string{"1,*,3", "1,*,4", "1,*,5", "1,*,7", "1,2", "1,3", "1,4", "1,5", "10,*,0", "12,*,0", "12,0", "2,*,2"}
)

func benchProbeCompiledSet(b *testing.B, keys []string) {
	c, ps, seqs := probeBench(b, keys)
	cps := compileAll(b, c, ps)
	sums := make([]float64, len(ps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seq := range seqs {
			addMatches(sums, cps, seq)
		}
	}
}

func benchProbeBatch(b *testing.B, keys []string) {
	c, ps, seqs := probeBench(b, keys)
	pb, err := CompileProbeBatch(c, ps)
	if err != nil {
		b.Fatal(err)
	}
	w := pb.NewWorker()
	sums := make([]float64, pb.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seq := range seqs {
			w.Add(sums, seq)
		}
	}
}

func BenchmarkProbeCompiledSetScattered(b *testing.B) { benchProbeCompiledSet(b, probeScattered) }
func BenchmarkProbeCompiledSetSiblings(b *testing.B)  { benchProbeCompiledSet(b, probeSiblings) }
func BenchmarkProbeBatchScattered(b *testing.B)       { benchProbeBatch(b, probeScattered) }
func BenchmarkProbeBatchSiblings(b *testing.B)        { benchProbeBatch(b, probeSiblings) }
