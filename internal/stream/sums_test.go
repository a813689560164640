package stream_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/stream"
)

// sumsMatrix builds an m-symbol compatibility source of one kind: "ramp"
// (every cell positive), "zero" (about 40% zero cells), "negzero" (the same
// with every zero written -0, as a matrix file's "-0" parses) or "sparse"
// (banded sparse storage).
func sumsMatrix(t *testing.T, kind string, m int, rng *rand.Rand) compat.Source {
	t.Helper()
	if kind == "sparse" {
		var cells []compat.Cell
		for o := 0; o < m; o++ {
			cells = append(cells,
				compat.Cell{True: pattern.Symbol(o), Observed: pattern.Symbol(o), P: 0.85},
				compat.Cell{True: pattern.Symbol((o + 1) % m), Observed: pattern.Symbol(o), P: 0.1},
				compat.Cell{True: pattern.Symbol((o + m - 1) % m), Observed: pattern.Symbol(o), P: 0.05})
		}
		c, err := compat.NewSparse(m, cells)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			v := 0.05 + rng.Float64()
			if i == j {
				v += 2
			} else if kind != "ramp" && rng.Float64() < 0.4 {
				v = 0
			}
			dense[i][j] = v
			sum += v
		}
		for i := 0; i < m; i++ {
			dense[i][j] /= sum
			if kind == "negzero" && dense[i][j] == 0 {
				dense[i][j] = math.Copysign(0, -1)
			}
		}
	}
	c, err := compat.New(dense)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sumsSeqs draws n sequences of length 5–16 over m symbols, most carrying
// one of two planted motifs so that the lattice has long frequent and
// ambiguous patterns.
func sumsSeqs(n, m int, rng *rand.Rand) [][]pattern.Symbol {
	motifs := [][]pattern.Symbol{{0, 1, 2, 3}, {4, 2, 5}}
	out := make([][]pattern.Symbol, n)
	for i := range out {
		seq := make([]pattern.Symbol, 5+rng.Intn(12))
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		if rng.Float64() < 0.7 {
			mo := motifs[rng.Intn(len(motifs))]
			copy(seq[rng.Intn(len(seq)-len(mo)+1):], mo)
		}
		out[i] = seq
	}
	return out
}

// inOrderSum is the reference every maintained sum must equal bit for bit:
// the pattern compiled alone, its Compiled.Match added sequence by sequence
// in order.
func inOrderSum(t *testing.T, c compat.Source, key string, seqs [][]pattern.Symbol) float64 {
	t.Helper()
	p, err := pattern.ParseKey(key)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := match.Compile(c, p)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, seq := range seqs {
		sum += cp.Match(seq)
	}
	return sum
}

// TestStreamSumsMatchInOrderReference: after every Advance, each maintained
// sample sum must equal (==, on the float64 bits) the in-order per-pattern
// Compiled.Match fold over the stream's sample, and each exact sum the same
// fold over the live window — whatever the worker count, the matrix
// (all-positive, zero cells, -0 cells, sparse) or the gap bound. The window
// passes read the log, whose deliveries reuse one buffer.
func TestStreamSumsMatchInOrderReference(t *testing.T) {
	const m = 6
	var scans, sampleChecked, exactChecked, extended int
	for _, kind := range []string{"ramp", "zero", "negzero", "sparse"} {
		for _, gap := range []int{0, 2} {
			rng := rand.New(rand.NewSource(int64(len(kind)*10 + gap)))
			c := sumsMatrix(t, kind, m, rng)
			data := sumsSeqs(240, m, rng)
			for workers := 1; workers <= 3; workers++ {
				db := newLog(t)
				s, err := stream.New(db, stream.Config{
					C: c, MinMatch: 0.3, Delta: 0.2, SampleSize: 60, MaxLen: 4, MaxGap: gap,
					MemBudget: 4, Workers: workers, Seed: 9,
				})
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(data); lo += 30 {
					appendBatch(t, db, data[lo:lo+30])
					res, err := s.Advance(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					scans += res.Scans
					if !res.Remined && res.Appended > 0 {
						extended++
					}
					st := s.State()
					for key, got := range st.SampleSums {
						if want := inOrderSum(t, c, key, st.Sample); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s gap %d workers %d batch %d: sample sum of %s = %v, in-order %v",
								kind, gap, workers, lo/30, key, got, want)
						}
						sampleChecked++
					}
					window := data[st.WindowStart:st.Cursor]
					for key, got := range st.ExactSums {
						if want := inOrderSum(t, c, key, window); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s gap %d workers %d batch %d: exact sum of %s = %v, in-order %v",
								kind, gap, workers, lo/30, key, got, want)
						}
						exactChecked++
					}
				}
			}
		}
	}
	// The battery must have exercised what it claims to check.
	if scans == 0 || exactChecked == 0 || sampleChecked == 0 || extended == 0 {
		t.Fatalf("coverage: %d window scans, %d batches extended without a re-mine, %d sample and %d exact sums checked",
			scans, extended, sampleChecked, exactChecked)
	}
	t.Logf("%d window scans, %d batches extended without a re-mine, %d sample and %d exact sums checked",
		scans, extended, sampleChecked, exactChecked)
}

// TestStreamRejectsSymbolOutsideMatrix: a logged symbol at or above the
// matrix size fails the Advance that ingests it, on the tail path and on the
// rebuild after a window move, instead of panicking in the kernels.
func TestStreamRejectsSymbolOutsideMatrix(t *testing.T) {
	const m = 6
	c := sumsMatrix(t, "zero", m, rand.New(rand.NewSource(3)))
	good := sumsSeqs(12, m, rand.New(rand.NewSource(4)))
	for _, window := range []int{0, 8} {
		db := newLog(t)
		s, err := stream.New(db, stream.Config{C: c, MinMatch: 0.3, SampleSize: 5, MaxLen: 3, Window: window, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		appendBatch(t, db, good[:6])
		if _, err := s.Advance(context.Background()); err != nil {
			t.Fatal(err)
		}
		appendBatch(t, db, [][]pattern.Symbol{{1, 2}, {0, m + 3, 1}})
		appendBatch(t, db, good[6:])
		_, err = s.Advance(context.Background())
		if err == nil || !strings.Contains(err.Error(), "symbol 9 outside the alphabet [0, 6)") {
			t.Fatalf("window %d: Advance err=%v, want the out-of-range symbol reported", window, err)
		}
	}
}

// BenchmarkStreamAdvance times one steady-state stream batch: 100 appended
// sequences (m=20, length 24–40, planted motifs under 5% noise) on top of a
// 3000-sequence warm-up, a 500-sequence reservoir, MaxLen 6 and two
// workers. Most batches replace reservoir members, so the typical batch
// re-mines the sample and re-anchors every candidate's sample sum.
func BenchmarkStreamAdvance(b *testing.B) {
	const warm, batch, pool = 3000, 100, 2000
	rng := rand.New(rand.NewSource(1))
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		M: 20, MinLen: 24, MaxLen: 40, NumMotifs: 3, MotifLen: 5, PlantProb: 0.4, N: warm + pool,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	data, err := datagen.ApplyUniformNoise(std, 20, 0.05, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compat.UniformNoise(20, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	db, err := seqdb.CreateAppend(filepath.Join(b.TempDir(), "bench.lsa"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s, err := stream.New(db, stream.Config{
		C: c, MinMatch: 0.2, SampleSize: 500, MaxLen: 6, MaxCandidatesPerLevel: 50000,
		MemBudget: 500, Workers: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	feed := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := db.Append(data.Seq(next % data.Len())); err != nil {
				b.Fatal(err)
			}
			next++
		}
	}
	feed(warm)
	if _, err := s.Advance(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(batch)
		if _, err := s.Advance(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
