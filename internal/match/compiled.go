package match

import (
	"slices"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// rowCache materializes dense matrix rows on demand. For the dense Matrix it
// borrows internal rows directly; for a SparseMatrix (or any other Source)
// it expands rows from the sparse adjacency once and shares them across all
// patterns compiled against the same cache, so a batch over a huge alphabet
// pays O(m) per *distinct* pattern symbol, not per pattern position.
type rowCache struct {
	src   compat.Source
	dense interface {
		Row(pattern.Symbol) []float64
	}
	rows map[pattern.Symbol][]float64
}

func newRowCache(src compat.Source) *rowCache {
	rc := &rowCache{src: src}
	if d, ok := src.(interface {
		Row(pattern.Symbol) []float64
	}); ok {
		rc.dense = d
	} else {
		rc.rows = make(map[pattern.Symbol][]float64)
	}
	return rc
}

func (rc *rowCache) row(d pattern.Symbol) []float64 {
	if rc.dense != nil {
		return rc.dense.Row(d)
	}
	if r, ok := rc.rows[d]; ok {
		return r
	}
	r := make([]float64, rc.src.Size())
	for _, e := range rc.src.ObservedGiven(d) {
		r[e.Sym] = e.P
	}
	rc.rows[d] = r
	return r
}

// Compiled is a pattern pre-processed for repeated matching against many
// sequences. Compilation hoists the eternal positions out of the inner loop,
// caches each position's matrix row, and builds a first-symbol filter that
// skips windows whose first observed symbol has zero compatibility with the
// pattern's first symbol — the sparse-matrix fast path the paper alludes to
// for near-Θ(|S|) match computation (§4.2).
type Compiled struct {
	p       pattern.Pattern
	length  int
	offsets []int       // offsets of non-eternal positions within the window
	rows    [][]float64 // matrix row for each non-eternal position
	firstOK []bool      // firstOK[obs]: window starting at obs can be non-zero
}

// Compile prepares p for matching under c. The pattern must be valid.
func Compile(c compat.Source, p pattern.Pattern) (*Compiled, error) {
	return compileWith(newRowCache(c), c.Size(), p)
}

func compileWith(rc *rowCache, m int, p pattern.Pattern) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := &Compiled{p: p.Clone(), length: len(p)}
	for i, d := range p {
		if d.IsEternal() {
			continue
		}
		cp.offsets = append(cp.offsets, i)
		cp.rows = append(cp.rows, rc.row(d))
	}
	firstRow := cp.rows[0] // position 0 is non-eternal by validity
	cp.firstOK = make([]bool, m)
	for obs, v := range firstRow {
		cp.firstOK[obs] = v > 0
	}
	return cp, nil
}

// Pattern returns the compiled pattern.
func (cp *Compiled) Pattern() pattern.Pattern { return cp.p }

// Match computes M(P,S) exactly like Sequence but with the precompiled
// structure.
func (cp *Compiled) Match(seq []pattern.Symbol) float64 {
	l := cp.length
	if len(seq) < l {
		return 0
	}
	best := 0.0
	for i := 0; i+l <= len(seq); i++ {
		if !cp.firstOK[seq[i]] {
			continue
		}
		v := 1.0
		for j, off := range cp.offsets {
			v *= cp.rows[j][seq[i+off]]
			if v <= best {
				v = 0
				break
			}
		}
		if v > best {
			best = v
			if best == 1 {
				return 1
			}
		}
	}
	return best
}

// appendWindows appends the start offset and full product of every window of
// seq whose product is non-zero. Unlike Match it applies no best-so-far
// cutoff: the incremental kernel needs every surviving window's exact
// product, because a right-extension can promote any of them to the new
// maximum. Products are accumulated left to right over the non-eternal
// positions, the same order Match and Sequence use, so the values are
// bit-identical to theirs.
func (cp *Compiled) appendWindows(seq []pattern.Symbol, starts []int32, prods []float64) ([]int32, []float64) {
	l := cp.length
	for i := 0; i+l <= len(seq); i++ {
		if !cp.firstOK[seq[i]] {
			continue
		}
		v := 1.0
		for j, off := range cp.offsets {
			v *= cp.rows[j][seq[i+off]]
			if v == 0 {
				break
			}
		}
		if v != 0 {
			starts = append(starts, int32(i))
			prods = append(prods, v)
		}
	}
	return starts, prods
}

// appendProds is appendWindows for all-positive matrices, where every window
// survives: only the products are appended — the window starts are the
// implicit ramp 0,1,2,…. The products are filled one pattern position at a
// time across all windows, a streaming loop per position that performs, per
// window, the same left-to-right multiplications as Match (the leading 1.0
// factor is exact, so the first position is a plain copy).
func (cp *Compiled) appendProds(seq []pattern.Symbol, prods []float64) []float64 {
	nw := len(seq) - cp.length + 1
	if nw <= 0 {
		return prods
	}
	n := len(prods)
	prods = slices.Grow(prods, nw)[:n+nw]
	dst := prods[n:]
	for j, off := range cp.offsets {
		row, obs := cp.rows[j], seq[off:off+nw]
		if j == 0 {
			for i, o := range obs {
				dst[i] = row[o]
			}
			continue
		}
		for i, o := range obs {
			dst[i] *= row[o]
		}
	}
	return prods
}
