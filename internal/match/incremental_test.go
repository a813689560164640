package match

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/testutil"
)

// randomDense builds a dense random compatibility matrix with zeroRate of
// the cells forced to zero (columns renormalized).
func randomDense(t testing.TB, m int, zeroRate float64, rng *rand.Rand) compat.Source {
	t.Helper()
	c, err := compat.New(randomDenseCells(m, zeroRate, rng))
	if err != nil {
		t.Fatalf("randomDense: %v", err)
	}
	return c
}

// negZeroDense is randomDense with every zero cell written as -0, as a
// matrix file cell "-0" parses: compat.New accepts it, and a product with
// it is -0, whose bits exceed every positive float's.
func negZeroDense(t testing.TB, m int, zeroRate float64, rng *rand.Rand) compat.Source {
	t.Helper()
	dense := randomDenseCells(m, zeroRate, rng)
	for _, row := range dense {
		for j, v := range row {
			if v == 0 {
				row[j] = math.Copysign(0, -1)
			}
		}
	}
	c, err := compat.New(dense)
	if err != nil {
		t.Fatalf("negZeroDense: %v", err)
	}
	return c
}

func randomDenseCells(m int, zeroRate float64, rng *rand.Rand) [][]float64 {
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			v := rng.Float64()
			if rng.Float64() < zeroRate {
				v = 0
			}
			dense[i][j] = v
			sum += v
		}
		if sum == 0 { // keep the column stochastic
			dense[j][j] = 1
			sum = 1
		}
		for i := 0; i < m; i++ {
			dense[i][j] /= sum
		}
	}
	return dense
}

// randomSparse builds a banded sparse matrix: each observed symbol is
// explained by itself and its two ring neighbors.
func randomSparse(t testing.TB, m int) compat.Source {
	t.Helper()
	var cells []compat.Cell
	for o := 0; o < m; o++ {
		cells = append(cells,
			compat.Cell{True: pattern.Symbol(o), Observed: pattern.Symbol(o), P: 0.9},
			compat.Cell{True: pattern.Symbol((o + 1) % m), Observed: pattern.Symbol(o), P: 0.06},
			compat.Cell{True: pattern.Symbol((o + m - 1) % m), Observed: pattern.Symbol(o), P: 0.04},
		)
	}
	c, err := compat.NewSparse(m, cells)
	if err != nil {
		t.Fatalf("randomSparse: %v", err)
	}
	return c
}

func randomSample(n, minLen, maxLen, m int, rng *rand.Rand) [][]pattern.Symbol {
	sample := make([][]pattern.Symbol, n)
	for i := range sample {
		l := minLen + rng.Intn(maxLen-minLen+1)
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		sample[i] = seq
	}
	return sample
}

// driveLattice mimics the engine's level-serial contract: level 1 is every
// symbol, each later level right-extends a pseudo-random alive subset of the
// previous level with gaps up to maxGap. Every level is fed to the kernel and
// checked against the naive per-pattern kernel.
func driveLattice(t *testing.T, c compat.Source, sample [][]pattern.Symbol, o IncrementalOptions, maxLevels, maxGap int, rng *rand.Rand) *Incremental {
	t.Helper()
	m := c.Size()
	meas := NewMatch(c)
	inc := NewIncremental(c, sample, o)
	level := make([]pattern.Pattern, 0, m)
	for d := 0; d < m; d++ {
		level = append(level, pattern.Pattern{pattern.Symbol(d)})
	}
	for k := 1; k <= maxLevels && len(level) > 0; k++ {
		vals, _, err := inc.ValueLevel(level)
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		if len(vals) != len(level) {
			t.Fatalf("level %d: %d values for %d candidates", k, len(vals), len(level))
		}
		var alive []pattern.Pattern
		for i, p := range level {
			want := Sample(meas, p, sample)
			if math.Abs(vals[i]-want) > 1e-12 {
				t.Fatalf("level %d pattern %s: incremental %v, naive %v", k, p, vals[i], want)
			}
			// Keep a deterministic subset alive so levels stay tractable.
			if vals[i] > 0 && rng.Float64() < 0.4 {
				alive = append(alive, p)
			}
		}
		// Never let the lattice die by coin flips alone: the tests assert
		// that deeper levels were exercised, for any RNG seed.
		if len(alive) == 0 {
			for i, p := range level {
				if vals[i] > 0 {
					alive = append(alive, p)
					break
				}
			}
		}
		var next []pattern.Pattern
		for _, p := range alive {
			for gap := 0; gap <= maxGap; gap++ {
				for tries := 0; tries < 2; tries++ {
					next = append(next, pattern.Extend(p, gap, pattern.Symbol(rng.Intn(m))))
				}
			}
			if len(next) > 120 {
				break
			}
		}
		level = next
	}
	return inc
}

func TestIncrementalMatchesNaiveDense(t *testing.T) {
	rng := testutil.Rng(t)
	c := randomDense(t, 12, 0, rng)
	sample := randomSample(40, 5, 30, 12, rng)
	inc := driveLattice(t, c, sample, IncrementalOptions{}, 5, 1, rng)
	st := inc.Stats()
	if st.Extended == 0 {
		t.Fatalf("no pattern was served by extension: %+v", st)
	}
	if st.Fallbacks != 0 || st.Evicted != 0 {
		t.Fatalf("unexpected budget activity: %+v", st)
	}
}

func TestIncrementalMatchesNaiveSparseZeros(t *testing.T) {
	rng := testutil.Rng(t)
	for _, tc := range []struct {
		name string
		c    compat.Source
	}{
		{"dense-with-zeros", randomDense(t, 10, 0.7, rng)},
		{"sparse-banded", randomSparse(t, 16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sample := randomSample(50, 4, 24, tc.c.Size(), rng)
			driveLattice(t, tc.c, sample, IncrementalOptions{Workers: 3, ShardSize: 7}, 6, 2, rng)
		})
	}
}

func TestIncrementalEternalHeavy(t *testing.T) {
	// Patterns dominated by eternal gaps: a * * b * * c …
	rng := testutil.Rng(t)
	c := randomDense(t, 8, 0.4, rng)
	sample := randomSample(30, 10, 40, 8, rng)
	meas := NewMatch(c)
	inc := NewIncremental(c, sample, IncrementalOptions{Workers: 2, ShardSize: 8})

	level := []pattern.Pattern{}
	for d := 0; d < 8; d++ {
		level = append(level, pattern.Pattern{pattern.Symbol(d)})
	}
	for k := 1; k <= 4 && len(level) > 0; k++ {
		vals, _, err := inc.ValueLevel(level)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range level {
			want := Sample(meas, p, sample)
			if math.Abs(vals[i]-want) > 1e-12 {
				t.Fatalf("pattern %s: incremental %v, naive %v", p, vals[i], want)
			}
		}
		var next []pattern.Pattern
		for _, p := range level[:min(len(level), 10)] {
			next = append(next, pattern.Extend(p, 2, pattern.Symbol(rng.Intn(8))))
		}
		level = next
	}
}

func TestIncrementalBudgetFallback(t *testing.T) {
	// A 1-byte budget evicts everything: every level after the first scores
	// through the compiled-matcher fallback, and values must not move.
	rng := testutil.Rng(t)
	c := randomDense(t, 10, 0.3, rng)
	sample := randomSample(35, 5, 25, 10, rng)
	inc := driveLattice(t, c, sample, IncrementalOptions{Budget: 1, Workers: 2, ShardSize: 5}, 5, 1, rng)
	st := inc.Stats()
	if st.Fallbacks == 0 {
		t.Fatalf("expected budget fallbacks, got %+v", st)
	}
	if st.Extended != 0 {
		t.Fatalf("nothing should extend under a 1-byte budget: %+v", st)
	}
}

func TestIncrementalWorkerCountInvariance(t *testing.T) {
	// The same lattice must produce bit-identical values for any worker
	// count: shard boundaries and merge order depend only on the sample.
	rng := testutil.Rng(t)
	c := randomDense(t, 10, 0.2, rng)
	sample := randomSample(60, 5, 25, 10, rng)

	levels := [][]pattern.Pattern{}
	level := []pattern.Pattern{}
	for d := 0; d < 10; d++ {
		level = append(level, pattern.Pattern{pattern.Symbol(d)})
	}
	for k := 0; k < 4; k++ {
		levels = append(levels, level)
		var next []pattern.Pattern
		for _, p := range level[:min(len(level), 8)] {
			next = append(next, pattern.Extend(p, 0, pattern.Symbol((k+int(p[0]))%10)))
			next = append(next, pattern.Extend(p, 1, pattern.Symbol((k+2*int(p[0]))%10)))
		}
		level = next
	}

	run := func(workers int) [][]float64 {
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: workers, ShardSize: 9})
		var out [][]float64
		for _, lv := range levels {
			vals, _, err := inc.ValueLevel(lv)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, vals)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 7} {
		got := run(workers)
		for li := range want {
			for i := range want[li] {
				if got[li][i] != want[li][i] {
					t.Fatalf("workers=%d level %d pattern %d: %v != %v",
						workers, li, i, got[li][i], want[li][i])
				}
			}
		}
	}
}

func TestIncrementalOrphanAndEdgeCases(t *testing.T) {
	rng := testutil.Rng(t)
	c := randomDense(t, 6, 0.3, rng)
	meas := NewMatch(c)

	t.Run("empty-sample", func(t *testing.T) {
		inc := NewIncremental(c, nil, IncrementalOptions{})
		vals, _, err := inc.ValueLevel([]pattern.Pattern{pattern.MustNew(0)})
		if err != nil || vals[0] != 0 {
			t.Fatalf("vals=%v err=%v", vals, err)
		}
	})
	t.Run("empty-level", func(t *testing.T) {
		inc := NewIncremental(c, randomSample(5, 3, 6, 6, rng), IncrementalOptions{})
		vals, _, err := inc.ValueLevel(nil)
		if err != nil || len(vals) != 0 {
			t.Fatalf("vals=%v err=%v", vals, err)
		}
	})
	t.Run("orphan-pattern", func(t *testing.T) {
		// A pattern whose parent was never evaluated heals: the parent's
		// spine block is rebuilt from scratch and the orphan is valued
		// through extension, exactly.
		sample := randomSample(20, 8, 16, 6, rng)
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: 2, ShardSize: 4})
		p := pattern.MustNew(1, pattern.Eternal, 3, 2)
		vals, ls, err := inc.ValueLevel([]pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		if want := Sample(meas, p, sample); math.Abs(vals[0]-want) > 1e-12 {
			t.Fatalf("orphan: incremental %v, naive %v", vals[0], want)
		}
		if ls.Extended != 1 || ls.Scratch != 0 || ls.Windows == 0 {
			t.Fatalf("orphan should heal via a rebuilt parent block: %+v", ls)
		}
	})
	t.Run("shorter-than-pattern", func(t *testing.T) {
		sample := [][]pattern.Symbol{{0}, {1, 2}}
		inc := NewIncremental(c, sample, IncrementalOptions{})
		p := pattern.MustNew(0, 1, 2)
		vals, _, err := inc.ValueLevel([]pattern.Pattern{p})
		if err != nil || vals[0] != 0 {
			t.Fatalf("vals=%v err=%v", vals, err)
		}
	})
	t.Run("invalid-pattern", func(t *testing.T) {
		inc := NewIncremental(c, randomSample(5, 3, 6, 6, rng), IncrementalOptions{})
		if _, _, err := inc.ValueLevel([]pattern.Pattern{{pattern.Eternal, 1}}); err == nil {
			t.Fatal("invalid pattern accepted")
		}
	})
}

// shardSums values ps the way the kernel associates its sums — per-sequence
// Compiled.Match, summed per shard in sequence order, shards merged in
// ascending order, divided by the sample size — so the kernel must match it
// bit for bit.
func shardSums(t *testing.T, c compat.Source, sample [][]pattern.Symbol, shardSize int, ps []pattern.Pattern) []float64 {
	t.Helper()
	out := make([]float64, len(ps))
	for i, p := range ps {
		cp, err := Compile(c, p)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(sample); lo += shardSize {
			part := 0.0
			for _, seq := range sample[lo:min(lo+shardSize, len(sample))] {
				part += cp.Match(seq)
			}
			out[i] += part
		}
		out[i] /= float64(len(sample))
	}
	return out
}

// TestSiblingClassMaxMatchesWindowWalk pins the class pass against the
// window-by-window walk it replaces: for random windows in ramp and sparse
// layouts, alphabets smaller and larger than the window count, matrices with
// +0 and with -0 cells, and sibling groups wide enough to take the class
// path, every sibling's per-sequence best is the same float64.
func TestSiblingClassMaxMatchesWindowWalk(t *testing.T) {
	rng := testutil.Rng(t)
	for iter := 0; iter < 300; iter++ {
		m := 2 + rng.Intn(40)
		var c compat.Source
		switch iter % 3 {
		case 0:
			c = randomDense(t, m, 0, rng)
		case 1:
			c = randomDense(t, m, 0.5, rng)
		default:
			c = negZeroDense(t, m, 0.5, rng)
		}
		rc := newRowCache(c)
		seq := randomSample(1, 1, 120, m, rng)[0]
		off := rng.Intn(3)
		nw := len(seq) - off
		if nw <= 0 {
			continue
		}
		prods := make([]float64, 0, nw)
		var starts []int32
		sparse := rng.Intn(2) == 0
		for w := 0; w < nw; w++ {
			if sparse && rng.Intn(3) == 0 {
				continue // a window that died
			}
			if sparse {
				starts = append(starts, int32(w))
			}
			p := rng.Float64() * math.Pow(10, -float64(rng.Intn(6)))
			if iter%3 == 2 && rng.Intn(5) == 0 {
				p = math.Copysign(0, -1) // a window product through a -0 cell
			}
			prods = append(prods, p)
		}
		if len(prods) == 0 {
			continue
		}
		k := 3 + rng.Intn(2*m)
		krows := make([][]float64, k)
		for ci := range krows {
			krows[ci] = rc.row(pattern.Symbol(rng.Intn(m)))
		}
		sb := newSiblings(m)
		got := make([]float64, k)
		sb.add(got, krows, prods, starts, seq, off)
		sb.classes(prods, starts, seq, off)
		for ci, row := range krows {
			want := 0.0
			for w, p := range prods {
				st := w
				if sparse {
					st = int(starts[w])
				}
				if v := p * row[seq[st+off]]; v > want {
					want = v
				}
			}
			if got[ci] != want {
				t.Fatalf("iter %d (m=%d, windows=%d, k=%d, sparse=%v): sibling %d add = %v, window walk = %v",
					iter, m, len(prods), k, sparse, ci, got[ci], want)
			}
			if b := classBest(sb.syms, sb.vals, row); b != want {
				t.Fatalf("iter %d: sibling %d class best = %v, window walk = %v", iter, ci, b, want)
			}
		}
	}
}

// TestIncrementalWideGroupsBitIdentical values wide sibling groups — every
// symbol at gaps 0 and 1 after each parent — under an all-positive (ramp)
// matrix and under matrices with zero cells (written +0 or -0), and requires
// every value to equal the shard-ordered per-sequence Compiled.Match sum
// exactly.
func TestIncrementalWideGroupsBitIdentical(t *testing.T) {
	rng := testutil.Rng(t)
	for _, tc := range []struct {
		name string
		c    compat.Source
	}{
		{"ramp", randomDense(t, 9, 0, rng)},
		{"dense-with-zeros", randomDense(t, 9, 0.4, rng)},
		{"sparse-banded", randomSparse(t, 12)},
		{"negative-zero-cells", negZeroDense(t, 9, 0.4, rng)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.c.Size()
			sample := randomSample(70, 2, 60, m, rng)
			inc := NewIncremental(tc.c, sample, IncrementalOptions{Workers: 3, ShardSize: 16})
			level := make([]pattern.Pattern, m)
			for d := range level {
				level[d] = pattern.Pattern{pattern.Symbol(d)}
			}
			for k := 1; k <= 4; k++ {
				vals, ls, err := inc.ValueLevel(level)
				if err != nil {
					t.Fatal(err)
				}
				want := shardSums(t, tc.c, sample, 16, level)
				for i, p := range level {
					if vals[i] != want[i] {
						t.Fatalf("level %d %s: kernel %v, Compiled.Match %v", k, p, vals[i], want[i])
					}
				}
				if k > 1 && ls.Scratch != 0 {
					t.Fatalf("level %d: %d candidates bypassed their parent's block", k, ls.Scratch)
				}
				var next []pattern.Pattern
				for _, p := range level[:min(len(level), 4*m)] {
					for gap := 0; gap <= 1; gap++ {
						for d := 0; d < m; d++ {
							next = append(next, pattern.Extend(p, gap, pattern.Symbol(d)))
						}
					}
				}
				level = next
			}
		})
	}
}

// budgetLattice is a fixed wide lattice for the budget tests: level 1 is
// every symbol, and each later level extends the first width patterns of
// the previous one by every symbol at gaps 0 and 1.
func budgetLattice(m, levels, width int) [][]pattern.Pattern {
	level := make([]pattern.Pattern, m)
	for d := range level {
		level[d] = pattern.Pattern{pattern.Symbol(d)}
	}
	var out [][]pattern.Pattern
	for k := 0; k < levels; k++ {
		out = append(out, level)
		var next []pattern.Pattern
		for _, p := range level[:min(len(level), width)] {
			for gap := 0; gap <= 1; gap++ {
				for d := 0; d < m; d++ {
					next = append(next, pattern.Extend(p, gap, pattern.Symbol(d)))
				}
			}
		}
		level = next
	}
	return out
}

// parentsBound is the admission bound of a level's distinct parents.
func parentsBound(inc *Incremental, ps []pattern.Pattern) int64 {
	seen := make(map[string]bool)
	var need int64
	for _, p := range ps {
		parent := pattern.Trim(p[: len(p)-1 : len(p)-1])
		if parent == nil || seen[parent.Key()] {
			continue
		}
		seen[parent.Key()] = true
		need += inc.spineBytesBound(len(parent))
	}
	return need
}

// TestIncrementalTightBudgetBitIdentical runs one lattice under budgets
// tight enough to retire the previous spine and to deny parents, and
// requires every level's values to equal the unlimited-budget run's exactly,
// the cache never to hold more than the budget, and no parent to be denied
// on a level whose parents fit the budget on their own.
func TestIncrementalTightBudgetBitIdentical(t *testing.T) {
	rng := testutil.Rng(t)
	for _, tc := range []struct {
		name string
		c    compat.Source
	}{
		{"ramp", randomDense(t, 8, 0, rng)},
		{"sparse", randomDense(t, 8, 0.5, rng)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sample := randomSample(90, 10, 50, 8, rng)
			levels := budgetLattice(8, 5, 12)
			run := func(budget int64) ([][]float64, *Incremental, []LevelStats) {
				inc := NewIncremental(tc.c, sample, IncrementalOptions{Workers: 2, ShardSize: 8, Budget: budget})
				var vals [][]float64
				var stats []LevelStats
				for k, lv := range levels {
					need := parentsBound(inc, lv)
					v, ls, err := inc.ValueLevel(lv)
					if err != nil {
						t.Fatal(err)
					}
					if budget > 0 && need <= budget && ls.Evicted != 0 {
						t.Fatalf("budget %d level %d: parents need %d bytes yet %d were denied", budget, k+1, need, ls.Evicted)
					}
					vals = append(vals, v)
					stats = append(stats, ls)
				}
				return vals, inc, stats
			}
			want, free, _ := run(-1)
			widest := free.Stats().PeakBytes
			var retired, denied bool
			for _, frac := range []float64{0.05, 0.2, 0.45, 0.7, 0.9} {
				budget := int64(frac * float64(widest))
				got, inc, stats := run(budget)
				for k := range want {
					for i := range want[k] {
						if got[k][i] != want[k][i] {
							t.Fatalf("budget %d level %d %s: %v, unlimited %v",
								budget, k+1, levels[k][i], got[k][i], want[k][i])
						}
					}
				}
				if peak := inc.Stats().PeakBytes; peak > budget {
					t.Fatalf("budget %d: peak %d bytes held", budget, peak)
				}
				for _, ls := range stats {
					retired = retired || ls.Retired
					denied = denied || ls.Evicted > 0
				}
			}
			if !retired || !denied {
				t.Fatalf("budgets never forced both a retirement (%v) and a denial (%v)", retired, denied)
			}
		})
	}
}

// TestIncrementalLiveLevelFirst is the regression guard for admission
// priority: a wide level leaves a large spine behind, and the next level's
// parents fit the budget only without it. The old spine must be retired
// and no parent denied.
func TestIncrementalLiveLevelFirst(t *testing.T) {
	rng := testutil.Rng(t)
	c := randomDense(t, 8, 0, rng)
	sample := randomSample(60, 20, 40, 8, rng)
	levels := budgetLattice(8, 3, 8)
	probe := NewIncremental(c, sample, IncrementalOptions{Budget: -1})
	need2, need3 := parentsBound(probe, levels[1]), parentsBound(probe, levels[2])
	budget := max(need2, need3) + need3/2 // either level fits alone, not both
	if need2+need3 <= budget {
		t.Fatalf("lattice too narrow: level 2 needs %d, level 3 %d", need2, need3)
	}
	inc := NewIncremental(c, sample, IncrementalOptions{Workers: 2, Budget: budget})
	for k, lv := range levels {
		_, ls, err := inc.ValueLevel(lv)
		if err != nil {
			t.Fatal(err)
		}
		if ls.Evicted != 0 || (k > 0 && ls.Scratch != 0) {
			t.Fatalf("level %d: %+v — parents that fit the budget were denied", k+1, ls)
		}
		if k == 2 && !ls.Retired {
			t.Fatalf("level 3 kept a spine that does not fit beside its parents: %+v", ls)
		}
	}
	if peak := inc.Stats().PeakBytes; peak > budget {
		t.Fatalf("peak %d bytes held over a %d budget", peak, budget)
	}
}
