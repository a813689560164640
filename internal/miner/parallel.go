package miner

import (
	"context"
	"runtime"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// ParallelMatchDBValuer is MatchDBValuer with the per-scan counting work
// spread across workers goroutines (0 = GOMAXPROCS). The scan remains a
// single sequential pass — the paper's cost model. Delivered sequences go
// through the probe kernel's in-order fold (match.Fold): each block is
// valued across the workers by sequence and folded into the sums in
// ascending sequence id, so the running sums see exactly match.DB's
// additions in match.DB's order, and the values are bit-identical for every
// worker count, including MatchDBValuer's one.
func ParallelMatchDBValuer(db seqdb.Scanner, c compat.Source, workers int) Valuer {
	return ParallelMatchDBValuerContext(nil, db, c, workers)
}

// ParallelMatchDBValuerContext is ParallelMatchDBValuer with cancellation
// checked between sequences and before every block is valued. Sums, counts
// and the fold are rebuilt per scan attempt, so a retrying scanner
// can re-run a failed pass without double-counting. Averages divide by the
// number of sequences the pass delivered, not db.Len(), so a stale Len()
// cannot skew the values.
func ParallelMatchDBValuerContext(ctx context.Context, db seqdb.Scanner, c compat.Source, workers int) Valuer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return func(ps []pattern.Pattern) ([]float64, error) {
		if len(ps) == 0 {
			// Nothing to count: answering from thin air costs no pass, so
			// don't burn a full database scan on an empty batch.
			return nil, nil
		}
		batch, err := match.CompileProbeBatch(c, ps)
		if err != nil {
			return nil, err
		}
		var sums []float64
		var delivered int
		var fold *match.Fold
		err = seqdb.ScanPassContext(ctx, db, func() (func(int, []pattern.Symbol) error, error) {
			sums, delivered = make([]float64, len(ps)), 0
			fold = batch.NewFold(sums, workers)
			return func(_ int, seq []pattern.Symbol) error {
				delivered++
				return fold.Push(ctx, seq)
			}, nil
		})
		if err != nil {
			return nil, err
		}
		// Value the last partial block of the successful attempt.
		if err := fold.Flush(ctx); err != nil {
			return nil, err
		}
		return average(sums, delivered), nil
	}
}
