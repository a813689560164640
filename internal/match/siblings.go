package match

import (
	"math"

	"repro/internal/pattern"
)

// Sibling valuation is the inner loop both Phase 2 engines share: the
// children of one parent at one total length qLen (siblings, differing only
// in the extension symbol d) are scored against one walk of the parent's
// surviving windows. A sibling's per-sequence value is the best window
// product fl(parentProd[w] × row_d[obs[w]]), where obs[w] is the observed
// symbol at the extension offset of window w.

// windowSet is one parent's window products over one shard's sequences,
// CSR-indexed: sequence i of the shard owns prods[offs[i]:offs[i+1]] and, in
// sparse mode, the matching ascending starts. In ramp mode (all-positive
// matrices — every window's product is non-zero) starts is nil: the window
// starts are implicitly 0,1,2,… per sequence. The incremental kernel's spine
// blocks and the growth engine's projections both use this layout.
type windowSet struct {
	offs   []int32
	starts []int32
	prods  []float64
}

// bytes charges the block's backing arrays (by capacity — what the process
// actually holds) against a budget.
func (ws *windowSet) bytes() int64 {
	return int64(cap(ws.offs))*4 + int64(cap(ws.starts))*4 + int64(cap(ws.prods))*8
}

// clip bounds the windows of shard-local sequence i (of length seqLen) that
// are still wide enough to host a pattern of total length qLen.
func (ws *windowSet) clip(i, seqLen, qLen int, ramp bool) (int, int) {
	wlo, whi := int(ws.offs[i]), int(ws.offs[i+1])
	var starts []int32
	if !ramp {
		starts = ws.starts[wlo:whi]
	}
	return wlo, wlo + hosted(starts, whi-wlo, seqLen, qLen)
}

// hosted returns how many of a sequence's nw leading windows (ascending
// starts, nil in ramp mode) are still wide enough to host a pattern of total
// length qLen in a sequence of length seqLen: ramp mode clips the implicit
// ramp by count, sparse mode binary-searches the starts.
func hosted(starts []int32, nw, seqLen, qLen int) int {
	if starts == nil {
		return min(nw, max(seqLen-qLen+1, 0))
	}
	limit := int32(seqLen - qLen)
	if nw == 0 || starts[nw-1] <= limit {
		return nw
	}
	l, h := 0, nw
	for l < h {
		if mid := (l + h) / 2; starts[mid] > limit {
			h = mid
		} else {
			l = mid + 1
		}
	}
	return l
}

// countWindows returns the number of length-l windows over seqs.
func countWindows(seqs [][]pattern.Symbol, l int) int64 {
	var n int64
	for _, seq := range seqs {
		if w := len(seq) - l + 1; w > 0 {
			n += int64(w)
		}
	}
	return n
}

// windowBytesBound is the worst-case bytes a block of the given total window
// count can hold over a sample of nseq sequences split into nshards shards:
// the admission bound of both the incremental kernel's spine and the growth
// engine's projection cache.
func windowBytesBound(windows int64, ramp bool, nseq, nshards int) int64 {
	per := int64(8) // prods
	if !ramp {
		per += 4 // starts
	}
	return windows*per + int64(nseq+nshards)*4 + entryOverhead
}

// siblings holds one worker's scratch for sibling valuation. Not safe for
// concurrent use.
type siblings struct {
	cm   []uint64         // per-symbol class max, as maxBits; zero between passes
	syms []int32          // classes the last pass saw
	vals []float64        // their maximum parent products
	obs  []pattern.Symbol // sparse mode: the gathered observed symbols
	run  []uint64         // per-sibling running max (maxBits) of the window-by-window walk
}

func newSiblings(m int) *siblings { return &siblings{cm: make([]uint64, m)} }

// maxBits is the key every sibling maximum is taken over (the class pass,
// classBest and the window walk): the IEEE-754 bits of |v|. Every value here
// is a product of matrix cells, so it is +0, -0 or positive, never NaN;
// positive floats order exactly as their bits do as uint64, and clearing the
// sign maps -0 (whose raw bits exceed every positive float's) to +0. An
// integer max over these keys therefore returns the float64 that
// `if v > b { b = v }` from b = +0 returns, and compiles to a conditional
// move where the float compare is a branch the window data mispredicts
// (EXPERIMENTS.md, "Phase-2 kernel: class-max valuation and live-level
// admission").
func maxBits(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

// classes is the observed-symbol class pass: it partitions one sequence's
// windows by the observed symbol o at extension offset off and leaves, per
// class present, the maximum parent product in syms/vals (ascending by
// symbol, valid until the next pass). prods are the windows' parent products
// and starts their starts (nil in ramp mode, where window j starts at j).
//
// This is what lets one pass serve every sibling. Within class o a sibling
// by d is worth max_w fl(prod[w] × row_d[o]); rounding is monotone and
// row_d[o] is a fixed non-negative factor, so prod ≤ prod' implies
// fl(prod × row_d[o]) ≤ fl(prod' × row_d[o]), and the class maximum
// commutes with the multiply. The sibling's per-sequence best is therefore
// max_o fl(classMax[o] × row_d[o]) (classBest) — the same float64 the
// window-by-window walk produces, not an approximation. A class whose
// products are all zero (absent, a ramp-mode underflow, or -0 through a -0
// matrix cell) adds nothing under a max from +0, so only non-zero classes
// are listed.
func (sb *siblings) classes(prods []float64, starts []int32, seq []pattern.Symbol, off int) {
	var obs []pattern.Symbol
	if starts == nil {
		obs = seq[off : off+len(prods)]
	} else {
		obs = sb.obs[:0]
		for _, st := range starts[:len(prods)] {
			obs = append(obs, seq[int(st)+off])
		}
		sb.obs = obs
	}
	cm := sb.cm
	obs = obs[:len(prods)] // same length as prods: checks eliminated
	for j, p := range prods {
		o := obs[j]
		cm[o] = max(cm[o], maxBits(p))
	}
	syms, vals := sb.syms[:0], sb.vals[:0]
	for o, c := range cm {
		if c > 0 {
			syms = append(syms, int32(o))
			vals = append(vals, math.Float64frombits(c))
			cm[o] = 0
		}
	}
	sb.syms, sb.vals = syms, vals
}

// classBest is a sibling's per-sequence best from a class pass: the maximum
// over classes of fl(classMax × row[class]), +0 when none is positive.
func classBest(syms []int32, vals []float64, row []float64) float64 {
	var b uint64
	for t, o := range syms {
		b = max(b, maxBits(vals[t]*row[o]))
	}
	return math.Float64frombits(b)
}

// add adds every sibling's best product over one sequence's windows to
// part[ci], krows[ci] being sibling ci's matrix row. The class pass costs
// nw + classes·(k+1) operations where the window-by-window walk costs nw·k
// for nw windows and k siblings, so the cheaper one is chosen per sequence;
// both produce the same floats (see classes). Both take their maxima over
// maxBits, which keeps the walk free of data-dependent branches.
func (sb *siblings) add(part []float64, krows [][]float64, prods []float64, starts []int32, seq []pattern.Symbol, off int) {
	nw, k := len(prods), len(krows)
	if nw*(k-1) > nw+min(len(sb.cm), nw)*(k+1) {
		sb.classes(prods, starts, seq, off)
		for ci, row := range krows {
			part[ci] += classBest(sb.syms, sb.vals, row)
		}
		return
	}
	if starts == nil {
		obs := seq[off : off+nw]
		for ci, row := range krows {
			var b uint64
			for j, p := range prods {
				b = max(b, maxBits(p*row[obs[j]]))
			}
			part[ci] += math.Float64frombits(b)
		}
		return
	}
	if cap(sb.run) < k {
		sb.run = make([]uint64, k)
	}
	best := sb.run[:k]
	clear(best)
	starts = starts[:nw]
	for w, p := range prods {
		o := seq[int(starts[w])+off]
		for ci, row := range krows {
			best[ci] = max(best[ci], maxBits(p*row[o]))
		}
	}
	for ci, b := range best {
		part[ci] += math.Float64frombits(b)
	}
}
