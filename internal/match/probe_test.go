package match

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/testutil"
)

// TestProbeBatchMatchesCompiledBitwise: the probe kernel's per-sequence value
// must be Compiled.Match's float64 on random matrices (about half their
// cells zero), patterns and sequences.
func TestProbeBatchMatchesCompiledBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const m = 8
	for trial := 0; trial < 50; trial++ {
		c := randomMatrix(r, m)
		var ps []pattern.Pattern
		for len(ps) < 12 {
			p := randomPattern(r, m, 6)
			if p.Validate() == nil {
				ps = append(ps, p)
			}
		}
		b, err := CompileProbeBatch(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != len(ps) {
			t.Fatalf("Len %d, want %d", b.Len(), len(ps))
		}
		compiled := make([]*Compiled, len(ps))
		for i, p := range ps {
			if compiled[i], err = Compile(c, p); err != nil {
				t.Fatal(err)
			}
		}
		w := b.NewWorker()
		for s := 0; s < 40; s++ {
			seq := randomSeq(r, m, 15)
			sums := make([]float64, len(ps))
			w.Add(sums, seq)
			for i, cp := range compiled {
				if want := cp.Match(seq); sums[i] != want {
					t.Fatalf("trial %d pattern %v seq %v: kernel %v != Compiled %v",
						trial, ps[i], seq, sums[i], want)
				}
			}
		}
	}
}

// TestProbeBatchAccumulates: Add adds onto the caller's sums rather than
// overwriting them, which both reductions (running sum and per-block sums)
// rely on.
func TestProbeBatchAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const m = 6
	c := randomMatrix(r, m)
	ps := []pattern.Pattern{{1, 2}, {3}, {1, 4}, {1, et, 2}}
	b, err := CompileProbeBatch(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	w := b.NewWorker()
	seq := randomSeq(r, m, 10)
	once := make([]float64, len(ps))
	w.Add(once, seq)
	twice := make([]float64, len(ps))
	w.Add(twice, seq)
	w.Add(twice, seq)
	for i := range once {
		if twice[i] != 2*once[i] {
			t.Fatalf("pattern %d: %v after two adds, want %v", i, twice[i], 2*once[i])
		}
	}
}

func TestProbeBatchEmptyBatch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	c := randomMatrix(r, 5)
	b, err := CompileProbeBatch(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.NewWorker().Add(nil, []pattern.Symbol{0, 1}) // must not panic
	if b.Len() != 0 {
		t.Fatalf("Len %d", b.Len())
	}
}

func TestProbeBatchRejectsInvalid(t *testing.T) {
	c := randomMatrix(rand.New(rand.NewSource(3)), 4)
	if _, err := CompileProbeBatch(c, []pattern.Pattern{{0, 1}, {0, et}}); err == nil {
		t.Fatal("a pattern ending in an eternal position compiled")
	}
}

// probeTestBatch draws a batch shaped like border-collapsing probes: sibling
// groups (one parent, every gap 0..maxGap, several extension symbols),
// singleton children, parentless single symbols, and a few long patterns
// that many sequences are too short to host.
func probeTestBatch(rng *rand.Rand, m, maxGap int) []pattern.Pattern {
	var ps []pattern.Pattern
	for g := 0; g < 1+rng.Intn(4); g++ {
		parent := randomPattern(rng, m, 4)
		for gap := 0; gap <= maxGap; gap++ {
			for k := 0; k < 1+rng.Intn(2*m); k++ {
				ps = append(ps, pattern.Extend(parent, gap, pattern.Symbol(rng.Intn(m))))
			}
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		ps = append(ps, pattern.Extend(randomPattern(rng, m, 5), rng.Intn(maxGap+1), pattern.Symbol(rng.Intn(m))))
	}
	for i := 0; i < rng.Intn(3); i++ {
		ps = append(ps, pattern.Pattern{pattern.Symbol(rng.Intn(m))})
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		long := randomPattern(rng, m, 3)
		for long.Len() < 12 {
			long = pattern.Extend(long, rng.Intn(3), pattern.Symbol(rng.Intn(m)))
		}
		ps = append(ps, long)
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// TestProbeBatchRunningSumEqualsDB folds the kernel's per-sequence values in
// ascending sequence order and requires every database value to equal
// match.DB's (==, not a tolerance) over randomized probe batches, under an
// all-positive matrix (the ramp path), matrices with zero cells written +0
// or -0 (the sparse path), and a sparse-storage matrix.
func TestProbeBatchRunningSumEqualsDB(t *testing.T) {
	rng := testutil.Rng(t)
	for iter := 0; iter < 40; iter++ {
		m := 3 + rng.Intn(12)
		var c compat.Source
		switch iter % 4 {
		case 0:
			c = randomDense(t, m, 0, rng)
		case 1:
			c = randomDense(t, m, 0.4, rng)
		case 2:
			c = negZeroDense(t, m, 0.4, rng)
		default:
			c = randomSparse(t, m)
		}
		db := seqdb.NewMemDB(randomSample(30+rng.Intn(50), 1, 14, m, rng))
		ps := probeTestBatch(rng, m, 1+rng.Intn(3))
		want, err := DB(db, NewMatch(c), ps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CompileProbeBatch(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		w := b.NewWorker()
		sums := make([]float64, len(ps))
		for i := 0; i < db.Len(); i++ {
			w.Add(sums, db.Seq(i))
		}
		for i := range ps {
			got := sums[i] / float64(db.Len())
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("iter %d (m=%d) pattern %v: kernel %v, match.DB %v", iter, m, ps[i], got, want[i])
			}
		}
	}
}

// TestFoldEqualsInOrderReference: a Fold seeded with running totals must
// extend them to exactly (==) the per-pattern Compiled.Match sums added in
// sequence order, for every worker count, over several blocks, through Add
// (in-memory sequences) and through Push from a delivery buffer that is
// overwritten after every call.
func TestFoldEqualsInOrderReference(t *testing.T) {
	rng := testutil.Rng(t)
	for iter := 0; iter < 12; iter++ {
		m := 3 + rng.Intn(10)
		var c compat.Source
		switch iter % 4 {
		case 0:
			c = randomDense(t, m, 0, rng)
		case 1:
			c = randomDense(t, m, 0.4, rng)
		case 2:
			c = negZeroDense(t, m, 0.4, rng)
		default:
			c = randomSparse(t, m)
		}
		seqs := randomSample(300+rng.Intn(300), 1, 14, m, rng)
		ps := probeTestBatch(rng, m, 1+rng.Intn(3))
		if iter%3 == 0 {
			// Wide enough that the value rows, not the sequence cap, size
			// the block.
			for len(ps) < 400 {
				ps = append(ps, probeTestBatch(rng, m, 2)...)
			}
		}
		seed := make([]float64, len(ps))
		for i := range seed {
			seed[i] = rng.Float64() * 50
		}
		want := append([]float64(nil), seed...)
		cps := compileAll(t, c, ps)
		for _, seq := range seqs {
			addMatches(want, cps, seq)
		}
		b, err := CompileProbeBatch(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how string, workers int, got []float64) {
			t.Helper()
			for i := range ps {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("iter %d %s workers %d pattern %v: fold %v, in-order %v", iter, how, workers, ps[i], got[i], want[i])
				}
			}
		}
		for workers := 1; workers <= 4; workers++ {
			got := append([]float64(nil), seed...)
			b.NewFold(got, workers).Add(seqs)
			check("Add", workers, got)

			got = append([]float64(nil), seed...)
			fold := b.NewFold(got, workers)
			var buf []pattern.Symbol
			for _, seq := range seqs {
				buf = append(buf[:0], seq...)
				if err := fold.Push(nil, buf); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = pattern.Symbol(rng.Intn(m))
				}
			}
			if err := fold.Flush(nil); err != nil {
				t.Fatal(err)
			}
			check("Push", workers, got)
		}
	}
}

// TestFoldBlockBounds: a fold block holds at most 256 sequences and about
// 512 KiB of value rows, and never fewer sequences than workers.
func TestFoldBlockBounds(t *testing.T) {
	c := randomMatrix(rand.New(rand.NewSource(5)), 6)
	for _, tc := range []struct{ n, workers, block int }{
		{0, 1, 256}, {12, 2, 256}, {256, 2, 256}, {600, 2, 109}, {100000, 1, 1}, {100000, 3, 3},
	} {
		ps := make([]pattern.Pattern, tc.n)
		for i := range ps {
			ps[i] = pattern.Pattern{pattern.Symbol(i % 6)}
		}
		b, err := CompileProbeBatch(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.NewFold(make([]float64, tc.n), tc.workers).block; got != tc.block {
			t.Errorf("%d patterns on %d workers: block %d, want %d", tc.n, tc.workers, got, tc.block)
		}
	}
}
