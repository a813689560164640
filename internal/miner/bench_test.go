package miner

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// BenchmarkSampleChernoff runs the full Phase 2 lattice over one sample with
// the naive per-pattern valuer and with the incremental prefix-extension
// kernel at several worker counts.
func BenchmarkSampleChernoff(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	motif := []pattern.Symbol{2, 5, 1, 4, 7}
	sample := incTestSample(200, 40, 10, motif, rng)
	c, err := compat.UniformNoise(10, 0.12)
	if err != nil {
		b.Fatal(err)
	}
	sm := symbolMatches(c, sample)
	opts := Options{MaxLen: 6, MaxGap: 1}

	run := func(b *testing.B, valuer func() Valuer) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SampleChernoff(c.Size(), valuer(), sm, 0.2, 1e-2, len(sample), opts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("naive", func(b *testing.B) {
		run(b, func() Valuer { return MatchSampleValuer(c, sample) })
	})
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(map[int]string{1: "incremental-1w", 4: "incremental-4w"}[workers], func(b *testing.B) {
			run(b, func() Valuer {
				v, _ := IncrementalSampleValuer(c, sample, IncrementalConfig{Workers: workers})
				return v
			})
		})
	}
}

// BenchmarkProbeScan times one Phase 3 probe scan of a disk-resident
// database shaped like lspperf's disk-collapse workload (2×10^4 noisy
// protein-like sequences of length 24–40, m=20, α=0.05, on an LSQ2 file):
// the scan's decode plus the probe kernel, for a sibling-heavy batch of
// 2-patterns and for a scattered batch of 4–5-patterns, both as border
// collapsing probes them under a budget of 12 counters.
func BenchmarkProbeScan(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := datagen.ProteinConfig{N: 20000, M: 20, MinLen: 24, MaxLen: 40, NumMotifs: 3, MotifLen: 5, PlantProb: 0.40}
	std, _, err := datagen.Protein(data, rng)
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, data.M, 0.05, rng)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "probe.lsq")
	if err := seqdb.WriteFile(path, noisy); err != nil {
		b.Fatal(err)
	}
	db, err := seqdb.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compat.UniformNoise(data.M, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	batches := []struct {
		name string
		keys []string
	}{
		{"siblings", []string{"1,*,3", "1,*,4", "1,*,5", "1,*,7", "1,2", "1,3", "1,4", "1,5", "10,*,0", "12,*,0", "12,0", "2,*,2"}},
		{"scattered", []string{"13,*,14,12,6", "13,7,*,12,6", "13,7,14,*,6", "13,7,14,12", "15,*,4,1,12", "15,2,*,1,12",
			"15,2,4,*,12", "15,2,4,1", "2,4,1,12", "7,14,12,6", "15,*,4,*,12", "15,*,4,1"}},
	}
	for _, batch := range batches {
		ps := make([]pattern.Pattern, len(batch.keys))
		for i, k := range batch.keys {
			if ps[i], err = pattern.ParseKey(k); err != nil {
				b.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s-%dw", batch.name, workers), func(b *testing.B) {
				v := ParallelMatchDBValuer(db, c, workers)
				for i := 0; i < b.N; i++ {
					if _, err := v(ps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
