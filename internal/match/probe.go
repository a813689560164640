package match

import (
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
