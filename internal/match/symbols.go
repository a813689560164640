package match

import (
	"fmt"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// SymbolAccumulator streams Algorithm 4.1's per-symbol match computation.
// Feed every sequence to Observe during a database scan, then call Matches
// with the sequence count to obtain match[d] for every symbol.
//
// The accumulator applies the paper's first-occurrence optimization: the
// match of a symbol d in a sequence is max over the *distinct* observed
// symbols d' of C(d, d'), so only the first occurrence of each observed
// symbol triggers column updates, giving O(N·min(l̄·m, l̄+m²)) overall — and,
// with a sparse matrix, O(N·(l̄ + touched-nonzeros)).
type SymbolAccumulator struct {
	c        compat.Source
	sums     []float64        // running Σ per-sequence max match, per symbol
	maxm     []float64        // per-sequence max match, per symbol
	touched  []pattern.Symbol // symbols with non-zero maxm this sequence
	seenObs  []bool           // observed symbols already processed this sequence
	seenList []pattern.Symbol // to reset seenObs cheaply
	err      error            // names the first observed symbol outside [0, m)
}

// NewSymbolAccumulator builds an accumulator over c.
func NewSymbolAccumulator(c compat.Source) *SymbolAccumulator {
	m := c.Size()
	return &SymbolAccumulator{
		c:       c,
		sums:    make([]float64, m),
		maxm:    make([]float64, m),
		seenObs: make([]bool, m),
	}
}

// Observe processes one sequence (lines 5–11 of Algorithm 4.1). A symbol
// outside the alphabet [0, m) is skipped, and the first one is reported by
// Err.
func (a *SymbolAccumulator) Observe(seq []pattern.Symbol) {
	seen := a.seenObs
	for _, obs := range seq {
		o := int(obs)
		if uint(o) >= uint(len(seen)) {
			if a.err == nil {
				a.err = fmt.Errorf("match: symbol %d outside the alphabet [0, %d)", obs, len(seen))
			}
			continue
		}
		if seen[o] {
			continue // first-occurrence optimization
		}
		seen[o] = true
		a.seenList = append(a.seenList, obs)
		for _, e := range a.c.TrueGiven(obs) {
			if e.P > a.maxm[e.Sym] {
				if a.maxm[e.Sym] == 0 {
					a.touched = append(a.touched, e.Sym)
				}
				a.maxm[e.Sym] = e.P
			}
		}
	}
	for _, d := range a.touched {
		a.sums[d] += a.maxm[d]
		a.maxm[d] = 0
	}
	a.touched = a.touched[:0]
	for _, obs := range a.seenList {
		a.seenObs[obs] = false
	}
	a.seenList = a.seenList[:0]
}

// Err reports the first observed symbol outside the alphabet, or nil. The
// sums skip such symbols, so a caller must not use them once Err is non-nil.
func (a *SymbolAccumulator) Err() error { return a.err }

// Matches returns match[d] for every symbol given the number of observed
// sequences n (Definition 3.7's division by N).
func (a *SymbolAccumulator) Matches(n int) []float64 {
	out := make([]float64, len(a.sums))
	if n <= 0 {
		return out
	}
	for i, s := range a.sums {
		out[i] = s / float64(n)
	}
	return out
}

// Sums returns a copy of the running per-symbol match sums (Matches before
// the division by N). A streaming pipeline checkpoints these raw sums so a
// restored accumulator continues bit-identically.
func (a *SymbolAccumulator) Sums() []float64 {
	out := make([]float64, len(a.sums))
	copy(out, a.sums)
	return out
}

// SetSums restores previously checkpointed sums. The slice length must be
// the alphabet size the accumulator was built with.
func (a *SymbolAccumulator) SetSums(sums []float64) error {
	if len(sums) != len(a.sums) {
		return fmt.Errorf("match: restoring %d symbol sums into an alphabet of %d", len(sums), len(a.sums))
	}
	copy(a.sums, sums)
	return nil
}

// Symbols computes the match of every individual symbol in one scan of the
// database (the convenience form of Algorithm 4.1 without sampling).
func Symbols(db seqdb.Scanner, c compat.Source) ([]float64, error) {
	acc := NewSymbolAccumulator(c)
	err := db.Scan(func(id int, seq []pattern.Symbol) error {
		acc.Observe(seq)
		if err := acc.Err(); err != nil {
			return fmt.Errorf("sequence %d: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return acc.Matches(db.Len()), nil
}

// SymbolsNaive is the unoptimized O(N·l̄·m) form of Algorithm 4.1 (no
// first-occurrence skip, dense column walks). It exists as the ablation
// baseline for the first-occurrence optimization micro-benchmark; results
// are identical to Symbols.
func SymbolsNaive(db seqdb.Scanner, c compat.Source) ([]float64, error) {
	m := c.Size()
	sums := make([]float64, m)
	maxm := make([]float64, m)
	err := db.Scan(func(id int, seq []pattern.Symbol) error {
		for i := range maxm {
			maxm[i] = 0
		}
		for _, obs := range seq {
			for d := 0; d < m; d++ {
				if v := c.C(pattern.Symbol(d), obs); v > maxm[d] {
					maxm[d] = v
				}
			}
		}
		for d := 0; d < m; d++ {
			sums[d] += maxm[d]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, m)
	if n := db.Len(); n > 0 {
		for i := range out {
			out[i] = sums[i] / float64(n)
		}
	}
	return out, nil
}
