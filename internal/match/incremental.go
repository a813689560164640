// The incremental prefix-extension kernel for Phase 2 (Algorithm 4.2's hot
// spot). The level-wise engine only ever scores right-extensions
// Extend(parent, gap, d) of patterns it scored one level earlier, yet the
// naive kernel re-walks the whole pattern against every window of every
// sample sequence at every level — O(|S|·l) per pattern per sequence, summing
// to O(L²) pattern-position work over L levels. This kernel caches, per
// generating parent and per sequence, the window prefix products, so scoring
// a child costs one matrix-row lookup and one multiply per window and the
// whole lattice costs O(L) pattern-position work.
//
// The cache is a lazy spine: a level's candidates are valued without storing
// anything, and only when the NEXT level references a pattern as a parent is
// its window block materialized — extended in O(1) per window from its own
// parent's block, which is still alive (a referenced parent was a candidate
// one level earlier, so its parent was referenced then). Since typically only
// a small fraction of candidates turn out frequent enough to generate
// children, the spine is an order of magnitude smaller than caching every
// candidate would be — most of the kernel's work is the store-free valuation
// walk. A parent whose ancestor block is missing (first levels, a retired
// spine, orphans) is rebuilt from scratch in O(l) per window and the lattice
// heals from there.
//
// The budget serves the live level first: when this level's parents and the
// previous spine do not fit together, the previous spine is retired before
// admission (its chunks feed this level's builds, which then rebuild from
// scratch once per parent) rather than denying parents their blocks.
// Parents are denied only when this level's parents alone exceed the budget
// (those admitted first, in first-seen order, keep their blocks), and only
// a denied parent's children fall back to per-pattern compiled matching —
// per kid, per sequence, O(l) per window, the one path that costs far more
// than a rebuild.
//
// Three further structural wins ride on the cache:
//
//   - Sibling amortization: every child of the same (parent, total length)
//     pair shares one walk of the parent's windows — the window bookkeeping
//     (bounds check, observed-symbol gather) is paid once per parent group,
//     not once per child.
//   - Class-max valuation: for wide sibling groups that walk folds each
//     sequence's windows into the maximum parent product per observed symbol
//     at the extension offset, and each child's per-sequence best becomes
//     max_o fl(classMax[o] × row[o]) — O(classes) per child instead of
//     O(windows), and the same float64 (see siblings.classes).
//   - Sample sharding: the sample is split into fixed-size contiguous shards
//     processed by a worker pool. Each (parent, shard) spine block and
//     partial sum is written by exactly one worker, and partial sums are
//     merged in ascending shard order, so results are bit-identical for
//     every worker count and every budget.
//
// Because a child's product is the parent's prefix product times one new
// factor — the same left-to-right association Sequence and Compiled.Match
// use — the kernel's per-sequence values are bit-identical to the naive
// kernel's; only the final sum over shards may differ from a straight
// sequential sum in the last float64 bits (associativity), which the
// equivalence tests bound at 1e-12.
package match

import (
	"sync"
	"sync/atomic"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// DefaultCacheBudget bounds the prefix cache when IncrementalOptions.Budget
// is zero: 256 MiB of window state, far above what the paper-scale workloads
// need but a hard wall against dense-matrix blowup.
const DefaultCacheBudget int64 = 256 << 20

// defaultShardSize is the number of sample sequences per shard. Shard
// boundaries are a function of the sample alone — never of the worker count —
// so the shard-order merge makes results independent of parallelism.
const defaultShardSize = 32

// entryOverhead approximates the fixed per-entry bookkeeping charged against
// the budget (struct, slice headers, map slot).
const entryOverhead = 96

// IncrementalOptions tunes the kernel; the zero value is a sequential kernel
// with the default budget and shard size.
type IncrementalOptions struct {
	// Workers is the number of shard workers (<= 1: sequential).
	Workers int
	// Budget bounds the bytes of cached prefix products, counting the
	// previous level's spine while it is kept alongside the one under
	// construction. 0 selects DefaultCacheBudget; negative means unlimited.
	// Admission is decided up front from a per-parent size bound, so the
	// kernel never holds more than the budget; the previous spine is retired
	// first, and parents that still do not fit fall back to compiled-matcher
	// recomputation — the budget trades speed for memory, never correctness.
	Budget int64
	// ShardSize overrides the sequences-per-shard split (<= 0: default 32).
	// Changing it reassociates the float64 sum merge, so it is fixed for a
	// kernel's lifetime and exposed mainly for tests.
	ShardSize int
}

// LevelStats reports one ValueLevel call.
type LevelStats struct {
	// Extended and Scratch split the level's pattern evaluations by path:
	// valued through a parent's spine block vs per-pattern compiled matching.
	Extended, Scratch int64
	// Windows is the number of spine windows cached for the next level;
	// Bytes the spine memory held when the level closed.
	Windows, Bytes int64
	// Retired reports that the previous spine was dropped at setup to make
	// room for this level's parents.
	Retired bool
	// Evicted counts parents denied a spine block by the memory budget;
	// Fallback reports that the budget forced at least one denial.
	Evicted  int64
	Fallback bool
}

// IncrementalStats accumulates LevelStats over a kernel's lifetime.
type IncrementalStats struct {
	Extended, Scratch, Windows, Evicted, Fallbacks int64
	// PeakBytes is the high-water mark of cache memory: the spine built for
	// a level plus the previous spine when it was kept.
	PeakBytes int64
}

// prefixEntry is one parent pattern's spine: its window blocks across all
// shards plus the build plan resolved at setup — src/row extend the
// grandparent's block in O(1) per window, cp rebuilds from scratch when no
// grandparent block survives. dropped parents (budget denials) get no blocks
// and their children score through per-pattern compiled matching.
type prefixEntry struct {
	pat     pattern.Pattern
	bound   int64 // spineBytesBound(len(pat))
	dropped bool
	src     *prefixEntry
	row     []float64
	cp      *Compiled
	shards  []windowSet
}

// Incremental is the kernel. Create with NewIncremental, feed it successive
// lattice levels with ValueLevel, and Release it when mining ends. It is not
// safe for concurrent ValueLevel calls (the engine is level-serial); the
// parallelism is internal.
type Incremental struct {
	c       compat.Source
	rc      *rowCache
	m       int
	sample  [][]pattern.Symbol
	shards  [][2]int // fixed contiguous [lo, hi) sequence ranges
	workers int
	budget  int64
	// ramp is set when the matrix has no zero cells: products can never
	// vanish, so every window survives every level and blocks store only
	// prods (starts are the implicit ramp 0,1,2,… per sequence).
	ramp      bool
	prev      map[string]*prefixEntry // the previous level's spine
	prevBytes int64
	winBound  map[int]int64 // pattern length -> total windows over the sample
	stats     IncrementalStats
	// Spine blocks are sub-sliced out of big chunks whose lifetime is the
	// level's: all of a level's blocks die together when the spine is
	// retired, so whole chunks recycle deterministically (no GC-driven pool
	// misses) and recycled memory is handed out un-zeroed — every slot of a
	// block is written before the block is read, so the make() clearing this
	// replaces was pure waste. poolMu guards the chunk lists; curF/curI back
	// the level being built, prevF/prevI the closed level serving as parents,
	// freeF/freeI are reusable.
	poolMu      sync.Mutex
	freeF       [][]float64
	freeI       [][]int32
	curF, prevF [][]float64
	curI, prevI [][]int32
}

// chunkFloats/chunkInts size the arena chunks (512 KiB each).
const (
	chunkFloats = 1 << 16
	chunkInts   = 1 << 17
)

// chunkF pops (or allocates) a chunk with room for n floats and records it
// as backing the level under construction.
func (inc *Incremental) chunkF(n int) []float64 {
	var c []float64
	inc.poolMu.Lock()
	for i := len(inc.freeF) - 1; i >= 0; i-- {
		if len(inc.freeF[i]) >= n {
			c = inc.freeF[i]
			inc.freeF = append(inc.freeF[:i], inc.freeF[i+1:]...)
			break
		}
	}
	if c == nil {
		size := chunkFloats
		if n > size {
			size = n
		}
		c = make([]float64, size)
	}
	inc.curF = append(inc.curF, c)
	inc.poolMu.Unlock()
	return c
}

// chunkI is chunkF for int32 window starts.
func (inc *Incremental) chunkI(n int) []int32 {
	var c []int32
	inc.poolMu.Lock()
	for i := len(inc.freeI) - 1; i >= 0; i-- {
		if len(inc.freeI[i]) >= n {
			c = inc.freeI[i]
			inc.freeI = append(inc.freeI[:i], inc.freeI[i+1:]...)
			break
		}
	}
	if c == nil {
		size := chunkInts
		if n > size {
			size = n
		}
		c = make([]int32, size)
	}
	inc.curI = append(inc.curI, c)
	inc.poolMu.Unlock()
	return c
}

// retire drops the previous spine: its chunks become free for the next
// builds and its blocks unreachable.
func (inc *Incremental) retire() {
	inc.poolMu.Lock()
	inc.freeF = append(inc.freeF, inc.prevF...)
	inc.freeI = append(inc.freeI, inc.prevI...)
	inc.prevF, inc.prevI = nil, nil
	inc.poolMu.Unlock()
	inc.prev, inc.prevBytes = nil, 0
}

// arenas is one worker's bump allocator over the kernel's chunks.
type arenas struct {
	inc  *Incremental
	fbuf []float64
	foff int
	ibuf []int32
	ioff int
}

// prods carves an n-float block; contents are uninitialized.
func (a *arenas) prods(n int) []float64 {
	if a.foff+n > len(a.fbuf) {
		a.fbuf = a.inc.chunkF(n)
		a.foff = 0
	}
	b := a.fbuf[a.foff : a.foff+n : a.foff+n]
	a.foff += n
	return b
}

// starts carves an n-int32 block; contents are uninitialized.
func (a *arenas) starts(n int) []int32 {
	if a.ioff+n > len(a.ibuf) {
		a.ibuf = a.inc.chunkI(n)
		a.ioff = 0
	}
	b := a.ibuf[a.ioff : a.ioff+n : a.ioff+n]
	a.ioff += n
	return b
}

// NewIncremental builds a kernel over a fixed in-memory sample.
func NewIncremental(c compat.Source, sample [][]pattern.Symbol, o IncrementalOptions) *Incremental {
	shardSize := o.ShardSize
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	budget := o.Budget
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	inc := &Incremental{
		c:        c,
		rc:       newRowCache(c),
		m:        c.Size(),
		sample:   sample,
		workers:  workers,
		budget:   budget,
		winBound: make(map[int]int64),
	}
	for lo := 0; lo < len(sample); lo += shardSize {
		hi := lo + shardSize
		if hi > len(sample) {
			hi = len(sample)
		}
		inc.shards = append(inc.shards, [2]int{lo, hi})
	}
	inc.ramp = true
	for d := 0; d < inc.m && inc.ramp; d++ {
		for _, v := range inc.rc.row(pattern.Symbol(d)) {
			if v == 0 {
				inc.ramp = false
				break
			}
		}
	}
	return inc
}

// Stats returns the cumulative kernel statistics.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Release drops the cache. The kernel stays usable — the next ValueLevel
// simply finds no parents — but callers should treat it as finished.
func (inc *Incremental) Release() {
	inc.retire()
	inc.poolMu.Lock()
	inc.freeF, inc.freeI = nil, nil
	inc.curF, inc.curI = nil, nil
	inc.poolMu.Unlock()
}

// spineBytesBound is the admission bound for one parent of length l: the
// worst-case bytes its blocks can hold across all shards (the total number
// of length-l windows over the sample, the exact size of a ramp-mode block
// and an upper bound on a sparse one). Actual usage never exceeds it (sparse
// blocks are compacted or bound-sized), so admitting by the bound keeps the
// spine under budget without mid-level eviction — and admission decided
// serially at setup is what keeps the cached/fallback split, and thus every
// block's contents, independent of worker scheduling.
func (inc *Incremental) spineBytesBound(l int) int64 {
	n, ok := inc.winBound[l]
	if !ok {
		n = countWindows(inc.sample, l)
		inc.winBound[l] = n
	}
	return windowBytesBound(n, inc.ramp, len(inc.sample), len(inc.shards))
}

// group collects the candidates extending one (parent, total length) pair:
// they share the parent's windows and the observed symbol at the extension
// offset, so the walk is paid once for all of them.
type group struct {
	pe   *prefixEntry
	qLen int
	kids []int       // candidate indices
	rows [][]float64 // each kid's extension row
}

// ValueLevel scores one lattice level and rotates the spine: blocks are
// built for the parents this level references (from the previous spine, or
// from scratch when it has no block), the candidates are valued against
// them without storing anything, and the previous spine is retired when the
// call returns (or at setup, when the budget needs its room). The returned
// values equal the naive sample kernel's (miner.MatchSampleValuer) for
// every candidate; see the package comment for the exact determinism
// guarantees.
func (inc *Incremental) ValueLevel(ps []pattern.Pattern) ([]float64, LevelStats, error) {
	out := make([]float64, len(ps))
	var ls LevelStats
	if len(ps) == 0 {
		inc.retire() // nothing references the spine any more
		return out, ls, nil
	}
	numShards := len(inc.shards)

	// Serial setup: resolve each candidate's generating parent (last symbol
	// dropped, trailing eternals trimmed) and total the parents' size bounds.
	parentOf := make([]*prefixEntry, len(ps))
	parents := make(map[string]*prefixEntry)
	var order []*prefixEntry // distinct parents, first-seen order
	var need int64
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, ls, err
		}
		parent := pattern.Trim(p[: len(p)-1 : len(p)-1])
		if parent == nil {
			continue
		}
		key := parent.Key()
		pe, ok := parents[key]
		if !ok {
			pe = &prefixEntry{pat: parent, bound: inc.spineBytesBound(len(parent))}
			parents[key] = pe
			order = append(order, pe)
			need += pe.bound
		}
		parentOf[i] = pe
	}

	// Admission serves the live level first: if this level's parents and the
	// previous spine do not fit together, the previous spine goes and this
	// level's parents rebuild from scratch — O(l) per window once per
	// parent, where a denial costs that per child. Then admit in first-seen
	// order and plan each build: extend the grandparent's block, or compile
	// the parent for a scratch rebuild.
	if inc.budget >= 0 && inc.prevBytes > 0 && inc.prevBytes+need > inc.budget {
		inc.retire()
		ls.Retired = true
	}
	held := inc.prevBytes
	var builds []*prefixEntry
	for _, pe := range order {
		if inc.budget >= 0 && held+pe.bound > inc.budget {
			pe.dropped = true
			ls.Evicted++
			ls.Fallback = true
			continue
		}
		held += pe.bound
		pe.shards = make([]windowSet, numShards)
		parent := pe.pat
		if g := pattern.Trim(parent[: len(parent)-1 : len(parent)-1]); g != nil {
			if ge := inc.prev[g.Key()]; ge != nil {
				pe.src = ge
				pe.row = inc.rc.row(parent[len(parent)-1])
			}
		}
		if pe.src == nil {
			pcp, err := compileWith(inc.rc, inc.m, parent)
			if err != nil {
				return nil, ls, err
			}
			pe.cp = pcp
		}
		builds = append(builds, pe)
	}

	// Group the kids of admitted parents by (parent, total length); every
	// other candidate — parentless, or a kid of a denied parent — gets a
	// compiled matcher. All rowCache traffic happens here, before the
	// workers start.
	scratch := make([]*Compiled, len(ps))
	var groups []*group
	type groupKey struct {
		pe   *prefixEntry
		qLen int
	}
	groupIdx := make(map[groupKey]*group)
	for i, p := range ps {
		pe := parentOf[i]
		if pe == nil || pe.dropped {
			cp, err := compileWith(inc.rc, inc.m, p)
			if err != nil {
				return nil, ls, err
			}
			scratch[i] = cp
			ls.Scratch++
			continue
		}
		gk := groupKey{pe, len(p)}
		g := groupIdx[gk]
		if g == nil {
			g = &group{pe: pe, qLen: len(p)}
			groupIdx[gk] = g
			groups = append(groups, g)
		}
		g.kids = append(g.kids, i)
		g.rows = append(g.rows, inc.rc.row(p[len(p)-1]))
		ls.Extended++
	}

	// Parallel section: workers claim whole shards, so every (parent, shard)
	// spine block and every partials[s] slice has exactly one writer.
	partials := make([][]float64, numShards)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(inc.workers, numShards); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb := newSiblings(inc.m)
			a := &arenas{inc: inc}
			for {
				s := int(cursor.Add(1)) - 1
				if s >= numShards {
					return
				}
				partials[s] = inc.processShard(s, len(ps), groups, builds, scratch, sb, a)
			}
		}()
	}
	wg.Wait()

	// Deterministic merge: ascending shard order, then the sample average.
	for s := 0; s < numShards; s++ {
		for i, v := range partials[s] {
			out[i] += v
		}
	}
	if n := len(inc.sample); n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}

	// Rotate: the just-built spine serves the next level, the previous one
	// is retired. Build plans are cleared so retired blocks (whose chunks
	// recycle) become unreachable.
	cur := make(map[string]*prefixEntry, len(builds))
	var bytes int64
	for key, e := range parents {
		e.pat, e.src, e.row, e.cp = nil, nil, nil, nil
		if e.dropped {
			continue
		}
		for s := range e.shards {
			ls.Windows += int64(len(e.shards[s].prods))
			bytes += e.shards[s].bytes()
		}
		bytes += entryOverhead
		cur[key] = e
	}
	peak := inc.prevBytes + bytes
	inc.retire()
	inc.poolMu.Lock()
	inc.prevF, inc.prevI = inc.curF, inc.curI
	inc.curF, inc.curI = nil, nil
	inc.poolMu.Unlock()
	inc.prev, inc.prevBytes = cur, bytes
	ls.Bytes = bytes

	inc.stats.Extended += ls.Extended
	inc.stats.Scratch += ls.Scratch
	inc.stats.Windows += ls.Windows
	inc.stats.Evicted += ls.Evicted
	if ls.Fallback {
		inc.stats.Fallbacks++
	}
	if peak > inc.stats.PeakBytes {
		inc.stats.PeakBytes = peak
	}
	return out, ls, nil
}

// processShard builds this shard's spine blocks, values every candidate
// against them, and returns the shard's partial sums.
func (inc *Incremental) processShard(s, n int, groups []*group, builds []*prefixEntry, scratch []*Compiled, sb *siblings, a *arenas) []float64 {
	part := make([]float64, n)
	lo, hi := inc.shards[s][0], inc.shards[s][1]

	for _, pe := range builds {
		if inc.ramp {
			inc.buildRampBlock(s, pe, a)
		} else {
			inc.buildSparseBlock(s, pe, a)
		}
	}
	var gpart []float64
	for _, g := range groups {
		// Each kid belongs to exactly one group, so summing a group's
		// per-sequence bests locally and storing them is the same float
		// sequence as accumulating into part directly.
		if cap(gpart) < len(g.kids) {
			gpart = make([]float64, len(g.kids))
		}
		gpart = gpart[:len(g.kids)]
		clear(gpart)
		pw := &g.pe.shards[s]
		off := g.qLen - 1
		for si := lo; si < hi; si++ {
			seq := inc.sample[si]
			wlo, whi := pw.clip(si-lo, len(seq), g.qLen, inc.ramp)
			if whi <= wlo {
				continue
			}
			var starts []int32
			if !inc.ramp {
				starts = pw.starts[wlo:whi]
			}
			sb.add(gpart, g.rows, pw.prods[wlo:whi], starts, seq, off)
		}
		for ci, i := range g.kids {
			part[i] = gpart[ci]
		}
	}
	for i, cp := range scratch {
		if cp == nil {
			continue
		}
		// Parentless candidates and kids of budget-denied parents: plain
		// compiled matching, Compiled.Match's best-so-far cutoff and all.
		for si := lo; si < hi; si++ {
			part[i] += cp.Match(inc.sample[si])
		}
	}
	return part
}

// buildRampBlock materializes one parent's window products for one shard in
// ramp mode: extend the grandparent's block by one factor, or rebuild from
// scratch when none survives. Every product is non-zero, so a block holds
// exactly one window per start and is allocated to that size.
func (inc *Incremental) buildRampBlock(s int, pe *prefixEntry, a *arenas) {
	lo, hi := inc.shards[s][0], inc.shards[s][1]
	qLen := len(pe.pat)
	offs := make([]int32, hi-lo+1)
	dst := a.prods(int(countWindows(inc.sample[lo:hi], qLen)))
	n := 0
	if src := pe.src; src != nil {
		pw := &src.shards[s]
		row := pe.row
		off := qLen - 1
		for si := lo; si < hi; si++ {
			seq := inc.sample[si]
			// The widened window drops the tail starts.
			if wlo, whi := pw.clip(si-lo, len(seq), qLen, true); whi > wlo {
				prods := pw.prods[wlo:whi]
				obs := seq[off : off+len(prods)] // same length as prods: checks eliminated
				d := dst[n : n+len(prods)]
				for j, p := range prods {
					d[j] = p * row[obs[j]]
				}
				n += len(prods)
			}
			offs[si-lo+1] = int32(n)
		}
	} else {
		prods := dst[:0]
		for si := lo; si < hi; si++ {
			prods = pe.cp.appendProds(inc.sample[si], prods)
			offs[si-lo+1] = int32(len(prods))
		}
		n = len(prods)
	}
	pe.shards[s] = windowSet{offs: offs, prods: dst[:n]}
}

// buildSparseBlock is buildRampBlock for matrices with zero cells, where
// windows genuinely die and the surviving subset (starts + prods) must be
// recorded. Builders are sized to the smaller of the grandparent's
// survivors and the parent's window count, and compacted when sparse
// enough; the bound-sized builders stay in their chunks until the level's
// chunks recycle.
func (inc *Incremental) buildSparseBlock(s int, pe *prefixEntry, a *arenas) {
	lo, hi := inc.shards[s][0], inc.shards[s][1]
	qLen := len(pe.pat)
	offs := make([]int32, hi-lo+1)
	bound := int(countWindows(inc.sample[lo:hi], qLen))
	var kst []int32
	var kpr []float64
	n := 0
	if src := pe.src; src != nil {
		pw := &src.shards[s]
		row := pe.row
		off := qLen - 1
		bound = min(bound, len(pw.prods))
		kst = a.starts(bound)
		kpr = a.prods(bound)
		for si := lo; si < hi; si++ {
			seq := inc.sample[si]
			wlo, whi := pw.clip(si-lo, len(seq), qLen, false)
			for w := wlo; w < whi; w++ {
				st := pw.starts[w]
				if v := pw.prods[w] * row[seq[int(st)+off]]; v != 0 {
					kst[n] = st
					kpr[n] = v
					n++
				}
			}
			offs[si-lo+1] = int32(n)
		}
	} else {
		starts := a.starts(bound)[:0]
		prods := a.prods(bound)[:0]
		for si := lo; si < hi; si++ {
			starts, prods = pe.cp.appendWindows(inc.sample[si], starts, prods)
			offs[si-lo+1] = int32(len(prods))
		}
		kst, kpr, n = starts, prods, len(prods)
	}
	sw := &pe.shards[s]
	sw.offs = offs
	// Compact before the budget accounting sees the block, so it is charged
	// for what survives, not the reservation.
	sw.starts, sw.prods = compactWindows(kst[:n], kpr[:n], bound)
}
