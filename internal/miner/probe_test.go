package miner

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/faults"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// probeWorkload is a Phase 3 probe batch over a database whose size is not a
// multiple of the probe block: sibling groups at gaps 0..2, singleton
// children, parentless single symbols and patterns longer than many of the
// sequences, under an all-positive matrix (kind 0), a sparse matrix (kind 1)
// or a dense matrix whose zero cells are written -0 (kind 2).
func probeWorkload(t *testing.T, seed int64) (*seqdb.MemDB, compat.Source, []pattern.Pattern) {
	t.Helper()
	const m = 10
	rng := rand.New(rand.NewSource(seed))
	var c compat.Source
	switch seed % 3 {
	case 0:
		c = incTestMatrix(t, m, 0.2)
	case 1:
		c = incTestSparse(t, m)
	default:
		c = negZeroMatrix(t, m, rng)
	}
	seqs := make([][]pattern.Symbol, 700+int(seed))
	for i := range seqs {
		seqs[i] = make([]pattern.Symbol, 3+rng.Intn(28))
		for j := range seqs[i] {
			seqs[i][j] = pattern.Symbol(rng.Intn(m))
		}
	}
	sym := func() pattern.Symbol { return pattern.Symbol(rng.Intn(m)) }
	var ps []pattern.Pattern
	for g := 0; g < 4; g++ {
		parent := pattern.Pattern{sym()}
		for k := rng.Intn(3); k > 0; k-- {
			parent = pattern.Extend(parent, rng.Intn(2), sym())
		}
		for gap := 0; gap <= 2; gap++ {
			for k := 1 + rng.Intn(6); k > 0; k-- {
				ps = append(ps, pattern.Extend(parent, gap, sym()))
			}
		}
	}
	for k := 0; k < 4; k++ {
		ps = append(ps, pattern.Extend(pattern.Extend(pattern.Pattern{sym()}, rng.Intn(3), sym()), rng.Intn(3), sym()))
	}
	ps = append(ps, pattern.Pattern{sym()}, pattern.Pattern{sym()})
	long := pattern.Pattern{sym()}
	for len(long) < 20 {
		long = pattern.Extend(long, rng.Intn(3), sym())
	}
	ps = append(ps, long)
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return seqdb.NewMemDB(seqs), c, ps
}

// negZeroMatrix is a column-stochastic dense matrix with about a third of its
// cells zero, each written -0 as a matrix file cell "-0" parses.
func negZeroMatrix(t *testing.T, m int, rng *rand.Rand) compat.Source {
	t.Helper()
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			if i == j || rng.Intn(3) > 0 {
				dense[i][j] = rng.Float64() + 0.01
				sum += dense[i][j]
			}
		}
		for i := 0; i < m; i++ {
			if dense[i][j] == 0 {
				dense[i][j] = math.Copysign(0, -1)
			} else {
				dense[i][j] /= sum
			}
		}
	}
	c, err := compat.New(dense)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// valuesHash is the FNV-64a hash of the values' float64 bits, in order.
func valuesHash(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// probeGolden holds, per probeWorkload seed, the value hashes the probe
// valuers returned before the per-sequence kernel was unified: the running
// sum of the single-pass valuers, and the per-block sums folded in block
// order of the sharded and remote valuers.
var probeGolden = map[int64]struct{ running, blocks uint64 }{
	1: {0x8a8265b81038accf, 0x24646e85219e0d13},
	2: {0x6640f0546d98de41, 0x8e0d5e67c4149574},
	3: {0xac51943068f1dd69, 0xa99f3c45971e46bf},
	4: {0xe1d48c72b7d3d8af, 0x39717ec8ab8d76d3},
	5: {0xd17a993a2b96df3c, 0x45aed3fea593eb5e},
	6: {0x9a696d37a8f5d348, 0x05a8411a00372b85},
}

// TestProbeValuesMatchGolden pins every Phase 3 probe layout to the values
// of the kernels it replaced, bit for bit: the single-pass valuers at
// workers 1–3 (which must also equal match.DB), and the sharded and remote
// valuers at shard counts 1, 2, 3 and 8 and workers 1–3.
func TestProbeValuesMatchGolden(t *testing.T) {
	for seed, want := range probeGolden {
		db, c, ps := probeWorkload(t, seed)
		ref, err := match.DB(db, match.NewMatch(c), ps)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, got []float64, err error, want uint64) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if h := valuesHash(got); h != want {
				t.Errorf("seed %d %s: value hash %#x, want %#x", seed, name, h, want)
			}
		}
		check("match.DB", ref, nil, want.running)
		got, err := MatchDBValuer(db, c)(ps)
		check("MatchDBValuer", got, err, want.running)
		for workers := 1; workers <= 3; workers++ {
			got, err := ParallelMatchDBValuer(db, c, workers)(ps)
			check("ParallelMatchDBValuer", got, err, want.running)
			for _, shards := range []int{1, 2, 3, 8} {
				got, err := ShardedMatchDBValuer(seqdb.ShardScanner(db, shards), c, workers)(ps)
				check("ShardedMatchDBValuer", got, err, want.blocks)
				pool := instantPool(remoteHarness(db, 2))
				got, err = RemoteShardValuer(seqdb.ShardScanner(db, shards), pool, c, workers)(ps)
				check("RemoteShardValuer", got, err, want.blocks)
			}
		}
	}
}

// TestProbeValuerRetryFreshState fails the first attempt of a probe pass
// mid-scan (the first shard's, for the sharded valuer), after whole blocks
// were already valued and folded, and requires the retried pass to return
// exactly the fault-free values: every attempt starts from fresh sums,
// counts and blocks, so nothing is counted twice.
func TestProbeValuerRetryFreshState(t *testing.T) {
	db, c, ps := probeWorkload(t, 2)
	retrying := func(at int) *seqdb.RetryScanner {
		return &seqdb.RetryScanner{Inner: faults.New(db, faults.TransientOn(1, at)), Sleep: func(time.Duration) {}}
	}
	same := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s pattern %v: retried %v, fault-free %v", name, ps[i], got[i], want[i])
			}
		}
	}
	want, err := match.DB(db, match.NewMatch(c), ps)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 3; workers++ {
		retry := retrying(600)
		got, err := ParallelMatchDBValuer(retry, c, workers)(ps)
		if err != nil {
			t.Fatal(err)
		}
		if st := retry.ScanStats(); st.Retries != 1 {
			t.Fatalf("workers=%d: %d retries, want the one injected", workers, st.Retries)
		}
		same("ParallelMatchDBValuer", got, want)
	}
	// Shard passes run one at a time here: the fault scanner's attempt
	// counter is not synchronized.
	for _, shards := range []int{1, 3} {
		want, err := ShardedMatchDBValuer(seqdb.ShardScanner(db, shards), c, 1)(ps)
		if err != nil {
			t.Fatal(err)
		}
		retry := retrying(200)
		got, err := ShardedMatchDBValuer(seqdb.ShardScanner(retry, shards), c, 1)(ps)
		if err != nil {
			t.Fatal(err)
		}
		if st := retry.ScanStats(); st.Retries != 1 {
			t.Fatalf("shards=%d: %d retries, want the one injected", shards, st.Retries)
		}
		same("ShardedMatchDBValuer", got, want)
	}
}
