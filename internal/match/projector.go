// Projected sample databases for the depth-first pattern-growth Phase 2
// engine (internal/growth). A Projection is one pattern's surviving window
// products over the whole sample — the same per-sequence prefix-product
// state the incremental level-wise kernel caches per parent (windowSet),
// lifted out of the level-serial spine so a DFS can hold one block per
// lattice path instead of one spine per level.
//
// Everything here replicates the incremental kernel's float discipline
// exactly, which is what makes the growth engine's values bit-identical to
// ValueLevel's:
//
//   - window products are accumulated left to right (appendWindows /
//     appendProds for scratch builds, parent product × one row factor for
//     extensions), the association Compiled.Match and Sequence use;
//   - zero-product windows are dropped in sparse mode, every window is kept
//     in ramp mode (all-positive matrices), with the identical
//     widened-window clipping (binary search on the ascending starts);
//   - per-candidate sample sums are accumulated per fixed 32-sequence shard
//     in ascending sequence order, shard partials are merged in ascending
//     shard order, and the merged sum is divided by the sample size.
//
// A Projector is immutable after construction (rows are pre-expanded), so
// any number of goroutines may Build, Extend, Value and walk projections
// concurrently — the growth engine shards its DFS roots across workers with
// no further coordination.
package match

import (
	"repro/internal/compat"
	"repro/internal/pattern"
)

// Projector owns the shared, read-only state of a projected-database run:
// the sample, its fixed shard split, the expanded matrix rows, and each
// row's maximum (the optimistic extension factor behind bound-pruning).
type Projector struct {
	m      int
	sample [][]pattern.Symbol
	shards [][2]int // fixed contiguous [lo, hi) sequence ranges
	rc     *rowCache
	ramp   bool // no zero cells: every window survives, starts are implicit
	rowMax []float64
}

// NewProjector builds a projector over a fixed in-memory sample. shardSize
// overrides the sequences-per-shard split (<= 0 selects the incremental
// kernel's default of 32; changing it reassociates the float64 merge, so it
// is exposed mainly for tests). All matrix rows are expanded eagerly —
// after construction the projector is safe for concurrent use.
func NewProjector(c compat.Source, sample [][]pattern.Symbol, shardSize int) *Projector {
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	pj := &Projector{
		m:      c.Size(),
		sample: sample,
		rc:     newRowCache(c),
		ramp:   true,
		rowMax: make([]float64, c.Size()),
	}
	for lo := 0; lo < len(sample); lo += shardSize {
		hi := lo + shardSize
		if hi > len(sample) {
			hi = len(sample)
		}
		pj.shards = append(pj.shards, [2]int{lo, hi})
	}
	for d := 0; d < pj.m; d++ {
		row := pj.rc.row(pattern.Symbol(d))
		max := 0.0
		for _, v := range row {
			if v == 0 {
				pj.ramp = false
			} else if v > max {
				max = v
			}
		}
		pj.rowMax[d] = max
	}
	return pj
}

// SampleSize returns the number of sample sequences.
func (pj *Projector) SampleSize() int { return len(pj.sample) }

// RowMax returns the largest compatibility any observed symbol has with d —
// the optimistic factor a one-symbol extension by d can contribute.
func (pj *Projector) RowMax(d pattern.Symbol) float64 { return pj.rowMax[d] }

// WindowBytesBound is the worst-case bytes a length-l projection can hold,
// mirroring the incremental kernel's admission bound (spineBytesBound): the
// growth engine admits a child projection against its DFS-path budget by
// this bound, which depends only on the sample and l — never on worker
// scheduling — so the projected/scratch split is deterministic.
func (pj *Projector) WindowBytesBound(l int) int64 {
	return windowBytesBound(countWindows(pj.sample, l), pj.ramp, len(pj.sample), len(pj.shards))
}

// Value scores one pattern from scratch: compiled matching per sequence,
// summed per shard and merged in ascending shard order — exactly the
// incremental kernel's scratch path, so the value is bit-identical to
// ValueLevel's for the same pattern.
func (pj *Projector) Value(p pattern.Pattern) (float64, error) {
	cp, err := compileWith(pj.rc, pj.m, p)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, sh := range pj.shards {
		part := 0.0
		for si := sh[0]; si < sh[1]; si++ {
			part += cp.Match(pj.sample[si])
		}
		total += part
	}
	if n := len(pj.sample); n > 0 {
		total /= float64(n)
	}
	return total, nil
}

// Projection is one pattern's window products over the whole sample — the
// projected database its right-extensions are valued against. Immutable
// after construction.
type Projection struct {
	pj     *Projector
	patLen int
	shards []windowSet
	bytes  int64
}

// PatLen returns the projected pattern's total length.
func (pr *Projection) PatLen() int { return pr.patLen }

// Bytes returns the memory the projection's backing arrays hold (by
// capacity), the quantity charged against the growth engine's path budget.
func (pr *Projection) Bytes() int64 { return pr.bytes }

// Build materializes p's projection from scratch (appendWindows /
// appendProds per sequence — the incremental kernel's scratch build), so
// the window products carry the canonical left-to-right association.
func (pj *Projector) Build(p pattern.Pattern) (*Projection, error) {
	cp, err := compileWith(pj.rc, pj.m, p)
	if err != nil {
		return nil, err
	}
	pr := &Projection{pj: pj, patLen: len(p), shards: make([]windowSet, len(pj.shards))}
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		offs := make([]int32, hi-lo+1)
		bound := int(countWindows(pj.sample[lo:hi], len(p)))
		if pj.ramp {
			prods := make([]float64, 0, bound)
			for si := lo; si < hi; si++ {
				prods = cp.appendProds(pj.sample[si], prods)
				offs[si-lo+1] = int32(len(prods))
			}
			sw.prods = prods
		} else {
			starts := make([]int32, 0, bound)
			prods := make([]float64, 0, bound)
			for si := lo; si < hi; si++ {
				starts, prods = cp.appendWindows(pj.sample[si], starts, prods)
				offs[si-lo+1] = int32(len(prods))
			}
			sw.starts, sw.prods = compactWindows(starts, prods, bound)
		}
		sw.offs = offs
		pr.bytes += sw.bytes()
	}
	return pr, nil
}

// compactWindows re-allocates a sparse block when fewer than half its
// reserved windows survived, so the path budget is charged for what is held,
// not the reservation — the incremental kernel's compaction rule.
func compactWindows(starts []int32, prods []float64, bound int) ([]int32, []float64) {
	if len(prods)*2 < bound {
		return append(make([]int32, 0, len(starts)), starts...),
			append(make([]float64, 0, len(prods)), prods...)
	}
	return starts, prods
}

// ClipMax returns, per sample sequence, the maximum parent product over the
// windows still wide enough for a child of total length qLen (0 when none
// survive). One walk of the projection serves every sibling's optimistic
// bound at this length.
func (pr *Projection) ClipMax(qLen int) []float64 {
	out := make([]float64, len(pr.pj.sample))
	for s, sh := range pr.pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		for si := lo; si < hi; si++ {
			wlo, whi := sw.clip(si-lo, len(pr.pj.sample[si]), qLen, pr.pj.ramp)
			best := 0.0
			for w := wlo; w < whi; w++ {
				if v := sw.prods[w]; v > best {
					best = v
				}
			}
			out[si] = best
		}
	}
	return out
}

// Bound returns an optimistic upper bound on the sample match of any child
// whose extension row maximum is rowMax, from the ClipMax walk at the
// child's length. Soundness is float-exact: every factor of the true child
// value is dominated term by term (prod_w <= clip[si], row[obs] <= rowMax),
// float multiplication and addition are monotone, and both sums follow the
// identical shard-merge association — so Bound >= the child's Value in
// float64 arithmetic, and a Chernoff-infrequent bound proves the child
// infrequent without valuing it.
func (pr *Projection) Bound(clip []float64, rowMax float64) float64 {
	total := 0.0
	for _, sh := range pr.pj.shards {
		part := 0.0
		for si := sh[0]; si < sh[1]; si++ {
			part += clip[si] * rowMax
		}
		total += part
	}
	if n := len(pr.pj.sample); n > 0 {
		total /= float64(n)
	}
	return total
}

// ValueKids scores every right-extension of the projected pattern to total
// length qLen by the symbols ds — one walk of the projection shared by all
// siblings (siblings.add, the incremental kernel's group valuation, class-max
// for wide groups), summed per shard, merged in ascending shard order,
// divided by the sample size.
func (pr *Projection) ValueKids(qLen int, ds []pattern.Symbol) []float64 {
	pj := pr.pj
	out := make([]float64, len(ds))
	part := make([]float64, len(ds))
	krows := make([][]float64, len(ds))
	for i, d := range ds {
		krows[i] = pj.rc.row(d)
	}
	sb := newSiblings(pj.m)
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		clear(part)
		for si := lo; si < hi; si++ {
			seq := pj.sample[si]
			wlo, whi := sw.clip(si-lo, len(seq), qLen, pj.ramp)
			if whi <= wlo {
				continue
			}
			var starts []int32
			if !pj.ramp {
				starts = sw.starts[wlo:whi]
			}
			sb.add(part, krows, sw.prods[wlo:whi], starts, seq, qLen-1)
		}
		for i := range out {
			out[i] += part[i]
		}
	}
	if n := len(pj.sample); n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	return out
}

// ProfileScratch holds the reusable buffers of Profile walks so a worker can
// profile one (node, length) group per call without reallocating. The zero
// value is ready to use; not safe for concurrent use.
type ProfileScratch struct {
	cls  *siblings
	offs []int32
	syms []int32
	vals []float64
	clip []float64
}

// Profile is the class decomposition of a projection clipped for children of
// total length qLen: per sequence, the distinct observed symbols at the
// extension position with the maximum surviving parent product each (CSR over
// sequences), plus the per-sequence overall maximum — the same floats ClipMax
// returns, since a max over windows equals the max over class maxima. One
// window walk builds it; afterwards a child's per-sequence best is
// max over classes of fl(classMax × row[class]) — bit-identical to the
// window-by-window walk by float monotonicity (see siblings.classes) — so valuing a
// sibling costs O(distinct classes), not O(windows), per sequence.
//
// A Profile borrows its scratch's buffers: it is valid only until the next
// Profile call on the same scratch.
type Profile struct {
	pr   *Projection
	qLen int
	offs []int32   // len(sample)+1 CSR offsets into syms/vals
	syms []int32   // observed symbol per class entry
	vals []float64 // max surviving parent product per class entry
	clip []float64 // per-sequence max over all entries (ClipMax's floats)
}

// Profile walks the projection once at child length qLen and returns the
// class decomposition backed by sc.
func (pr *Projection) Profile(qLen int, sc *ProfileScratch) Profile {
	pj := pr.pj
	n := len(pj.sample)
	if sc.cls == nil || len(sc.cls.cm) != pj.m {
		sc.cls = newSiblings(pj.m)
	}
	if cap(sc.clip) < n {
		sc.clip = make([]float64, n)
		sc.offs = make([]int32, 0, n+1)
	}
	sc.clip = sc.clip[:n]
	sc.offs = append(sc.offs[:0], 0)
	sc.syms = sc.syms[:0]
	sc.vals = sc.vals[:0]
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		for si := lo; si < hi; si++ {
			seq := pj.sample[si]
			best := 0.0
			if wlo, whi := sw.clip(si-lo, len(seq), qLen, pj.ramp); whi > wlo {
				var starts []int32
				if !pj.ramp {
					starts = sw.starts[wlo:whi]
				}
				sc.cls.classes(sw.prods[wlo:whi], starts, seq, qLen-1)
				for _, c := range sc.cls.vals {
					best = max(best, c)
				}
				sc.syms = append(sc.syms, sc.cls.syms...)
				sc.vals = append(sc.vals, sc.cls.vals...)
			}
			sc.clip[si] = best
			sc.offs = append(sc.offs, int32(len(sc.syms)))
		}
	}
	return Profile{pr: pr, qLen: qLen, offs: sc.offs, syms: sc.syms, vals: sc.vals, clip: sc.clip}
}

// Clip returns the per-sequence clipped maxima — the slice Bound expects,
// float-identical to ClipMax(qLen).
func (pf *Profile) Clip() []float64 { return pf.clip }

// ValueKids scores every extension of the profiled pattern by the symbols ds
// at the profile's child length — the same floats Projection.ValueKids
// produces, from the class entries instead of the raw windows.
func (pf *Profile) ValueKids(ds []pattern.Symbol) []float64 {
	pj := pf.pr.pj
	out := make([]float64, len(ds))
	part := make([]float64, len(ds))
	krows := make([][]float64, len(ds))
	for i, d := range ds {
		krows[i] = pj.rc.row(d)
	}
	for _, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		clear(part)
		for si := lo; si < hi; si++ {
			elo, ehi := pf.offs[si], pf.offs[si+1]
			if ehi <= elo {
				continue
			}
			for ci, row := range krows {
				part[ci] += classBest(pf.syms[elo:ehi], pf.vals[elo:ehi], row)
			}
		}
		for i := range out {
			out[i] += part[i]
		}
	}
	if n := len(pj.sample); n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	return out
}

// Extend materializes the projection of the child extending the projected
// pattern to total length qLen with the concrete symbol d: each surviving
// parent window's product gains one row factor (the incremental kernel's
// O(1)-per-window block extension), zero products are dropped in sparse
// mode, and the block is compacted when sparse enough.
func (pr *Projection) Extend(qLen int, d pattern.Symbol) *Projection {
	pj := pr.pj
	row := pj.rc.row(d)
	child := &Projection{pj: pj, patLen: qLen, shards: make([]windowSet, len(pj.shards))}
	off := qLen - 1
	for s, sh := range pj.shards {
		lo, hi := sh[0], sh[1]
		sw := &pr.shards[s]
		cw := &child.shards[s]
		offs := make([]int32, hi-lo+1)
		// Surviving windows are bounded both by the parent's block and by the
		// child length's window count; reserving the smaller keeps Bytes()
		// within WindowBytesBound(qLen), the budget admission bound.
		bound := min(len(sw.prods), int(countWindows(pj.sample[lo:hi], qLen)))
		if pj.ramp {
			dst := make([]float64, 0, bound)
			for si := lo; si < hi; si++ {
				seq := pj.sample[si]
				wlo, whi := sw.clip(si-lo, len(seq), qLen, pj.ramp)
				if whi > wlo {
					prods := sw.prods[wlo:whi]
					obs := seq[off : off+len(prods)]
					for j, p := range prods {
						dst = append(dst, p*row[obs[j]])
					}
				}
				offs[si-lo+1] = int32(len(dst))
			}
			cw.prods = dst
		} else {
			kst := make([]int32, 0, bound)
			kpr := make([]float64, 0, bound)
			for si := lo; si < hi; si++ {
				seq := pj.sample[si]
				wlo, whi := sw.clip(si-lo, len(seq), qLen, pj.ramp)
				for w := wlo; w < whi; w++ {
					st := sw.starts[w]
					if v := sw.prods[w] * row[seq[int(st)+off]]; v != 0 {
						kst = append(kst, st)
						kpr = append(kpr, v)
					}
				}
				offs[si-lo+1] = int32(len(kpr))
			}
			cw.starts, cw.prods = compactWindows(kst, kpr, bound)
		}
		cw.offs = offs
		child.bytes += cw.bytes()
	}
	return child
}
