package match

import (
	"context"
	"sync"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// ProbeBatch is a Phase 3 probe batch compiled for the per-sequence probe
// kernel. A border-collapsing batch is mostly sibling groups — 0,3 0,4 …
// 0,*,2 0,*,3 … all extend the generating parent 0 — so the batch is grouped
// the way Incremental.ValueLevel groups a lattice level: by generating parent
// (the pattern with its last symbol dropped and trailing eternals trimmed)
// and then by total length. Per sequence, each parent's window products are
// built once — branch-free over the implicit ramp of window starts when the
// parent's rows are all positive (Compiled.appendProds), otherwise only the
// non-zero windows (Compiled.appendWindows) — and every sibling is valued
// from them by siblings.add. A child's window product is the parent's
// product times one extension factor, the left-to-right order Compiled.Match
// multiplies in, and siblings.add returns the maximum of those products
// exactly (see siblings.classes), so each per-sequence value is the float64
// Compiled.Match returns. Parentless patterns (single symbols) keep
// Compiled.Match.
//
// A ProbeBatch is immutable once compiled: any number of goroutines may
// value sequences against it concurrently, each through its own ProbeWorker.
type ProbeBatch struct {
	n       int
	m       int
	single  []*Compiled // parentless patterns, valued by Compiled.Match
	singleI []int       // their batch indices
	parents []probeParent
	maxKids int
}

// probeParent is one generating parent and its sibling groups, ascending by
// first appearance in the batch.
type probeParent struct {
	cp     *Compiled
	ramp   bool // every row of the parent is positive: all windows survive
	minLen int  // shortest child's total length: shorter sequences host none
	groups []probeGroup
}

// probeGroup is the children of one parent at one total length qLen.
type probeGroup struct {
	qLen int
	kids []int       // batch indices
	rows [][]float64 // each kid's extension row
}

// CompileProbeBatch compiles ps for the probe kernel. Every pattern must be
// valid.
func CompileProbeBatch(c compat.Source, ps []pattern.Pattern) (*ProbeBatch, error) {
	rc := newRowCache(c)
	b := &ProbeBatch{n: len(ps), m: c.Size()}
	parentIdx := make(map[string]int)
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		parent := pattern.Trim(p[: len(p)-1 : len(p)-1])
		if parent == nil {
			cp, err := compileWith(rc, b.m, p)
			if err != nil {
				return nil, err
			}
			b.single = append(b.single, cp)
			b.singleI = append(b.singleI, i)
			continue
		}
		pi, ok := parentIdx[parent.Key()]
		if !ok {
			cp, err := compileWith(rc, b.m, parent)
			if err != nil {
				return nil, err
			}
			ramp := true
			for _, row := range cp.rows {
				for _, v := range row {
					ramp = ramp && v > 0
				}
			}
			pi = len(b.parents)
			parentIdx[parent.Key()] = pi
			b.parents = append(b.parents, probeParent{cp: cp, ramp: ramp, minLen: len(p)})
		}
		pp := &b.parents[pi]
		pp.minLen = min(pp.minLen, len(p))
		gi := 0
		for gi < len(pp.groups) && pp.groups[gi].qLen != len(p) {
			gi++
		}
		if gi == len(pp.groups) {
			pp.groups = append(pp.groups, probeGroup{qLen: len(p)})
		}
		g := &pp.groups[gi]
		g.kids = append(g.kids, i)
		g.rows = append(g.rows, rc.row(p[len(p)-1]))
		b.maxKids = max(b.maxKids, len(g.kids))
	}
	return b, nil
}

// Len returns the number of patterns in the batch.
func (b *ProbeBatch) Len() int { return b.n }

// ProbeWorker is one goroutine's scratch for valuing sequences against a
// ProbeBatch. Not safe for concurrent use; it holds no results, so it may be
// reused across sequences, blocks and scan attempts.
type ProbeWorker struct {
	b      *ProbeBatch
	sb     *siblings
	starts []int32
	prods  []float64
	part   []float64
}

// NewWorker returns fresh scratch for b.
func (b *ProbeBatch) NewWorker() *ProbeWorker {
	return &ProbeWorker{b: b, sb: newSiblings(b.m), part: make([]float64, b.maxKids)}
}

// Add adds seq's match M(P,seq) for every pattern P of the batch into
// sums[i] (len(sums) must be Len()): exactly one addition per pattern, so a
// caller folding sequences in ascending id order reproduces match.DB's
// running sum bit for bit.
func (w *ProbeWorker) Add(sums []float64, seq []pattern.Symbol) {
	b := w.b
	for j, cp := range b.single {
		sums[b.singleI[j]] += cp.Match(seq)
	}
	for pi := range b.parents {
		pp := &b.parents[pi]
		if len(seq) < pp.minLen {
			continue
		}
		var starts []int32
		if pp.ramp {
			w.prods = pp.cp.appendProds(seq, w.prods[:0])
		} else {
			w.starts, w.prods = pp.cp.appendWindows(seq, w.starts[:0], w.prods[:0])
			starts = w.starts
		}
		for gi := range pp.groups {
			g := &pp.groups[gi]
			nw := hosted(starts, len(w.prods), len(seq), g.qLen)
			if nw == 0 {
				continue
			}
			part := w.part[:len(g.kids)]
			clear(part)
			var st []int32
			if starts != nil {
				st = starts[:nw]
			}
			w.sb.add(part, g.rows, w.prods[:nw], st, seq, g.qLen-1)
			for ci, i := range g.kids {
				sums[i] += part[ci]
			}
		}
	}
}

// A fold block holds at most foldBlock sequences and about foldRowBytes of
// value rows (a float64 per pattern per sequence), so a 600-candidate sample
// batch folds about 109 sequences a block and does not grow the heap.
const (
	foldBlock    = 256
	foldRowBytes = 512 << 10
)

// Fold adds a ProbeBatch's per-sequence values into running sums in the
// order the sequences are given. Each block's sequences are split across the
// workers by sequence into per-sequence value rows, and the rows are then
// added into the sums in ascending order: one addition per pattern per
// sequence, exactly a sequential in-order scan's (DB, or a per-pattern
// Compiled.Match loop), for every worker count. Sums seeded with earlier
// totals are extended as if that scan had never stopped. Not safe for
// concurrent use.
type Fold struct {
	sums    []float64
	workers []*ProbeWorker
	block   int
	vals    []float64          // block × Len() value rows
	arena   []pattern.Symbol   // Push's copies, back to back
	ends    []int              // where each buffered sequence ends in arena
	views   [][]pattern.Symbol // the buffered sequences, cut from arena
}

// NewFold returns a fold of b's values into sums (len(sums) must be Len())
// on workers goroutines (below 1 means 1).
func (b *ProbeBatch) NewFold(sums []float64, workers int) *Fold {
	workers = max(workers, 1)
	block := max(min(foldBlock, foldRowBytes/(8*max(b.n, 1))), workers)
	f := &Fold{sums: sums, workers: make([]*ProbeWorker, workers), block: block, vals: make([]float64, block*b.n)}
	for i := range f.workers {
		f.workers[i] = b.NewWorker()
	}
	return f
}

// Add folds in-memory sequences, which must not change until Add returns.
func (f *Fold) Add(seqs [][]pattern.Symbol) {
	for len(seqs) > 0 {
		n := min(len(seqs), f.block)
		f.fold(seqs[:n])
		seqs = seqs[n:]
	}
}

// Push copies seq — a scanner may reuse its delivery buffer — and folds the
// buffered block once it is full, checking cancellation first.
func (f *Fold) Push(ctx context.Context, seq []pattern.Symbol) error {
	f.arena = append(f.arena, seq...)
	f.ends = append(f.ends, len(f.arena))
	if len(f.ends) < f.block {
		return nil
	}
	return f.Flush(ctx)
}

// Flush folds the sequences Push has buffered (a final partial block).
func (f *Fold) Flush(ctx context.Context) error {
	if len(f.ends) == 0 {
		return nil
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	// Views are cut only now: appends may have regrown the arena mid-block.
	f.views = f.views[:0]
	lo := 0
	for _, hi := range f.ends {
		f.views, lo = append(f.views, f.arena[lo:hi:hi]), hi
	}
	f.fold(f.views)
	f.arena, f.ends = f.arena[:0], f.ends[:0]
	return nil
}

// fold values one block into per-sequence rows, split across the workers,
// and adds the rows into the sums in sequence order.
func (f *Fold) fold(seqs [][]pattern.Symbol) {
	sums, vals := f.sums, f.vals
	np, n := len(sums), len(seqs)
	w := min(len(f.workers), n)
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(k *ProbeWorker, lo, hi int) {
			defer wg.Done()
			clear(vals[lo*np : hi*np])
			for s := lo; s < hi; s++ {
				k.Add(vals[s*np:(s+1)*np], seqs[s])
			}
		}(f.workers[i], n*i/w, n*(i+1)/w)
	}
	wg.Wait()
	for s := 0; s < n; s++ {
		for i, v := range vals[s*np : (s+1)*np] {
			sums[i] += v
		}
	}
}
