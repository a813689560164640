package miner

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// probeBlock is the number of sequences a probe scan buffers before valuing
// them: one block is split across the workers by sequence and folded into
// the running sums before the next block is read.
const probeBlock = 256

// ParallelMatchDBValuer is MatchDBValuer with the per-scan counting work
// spread across workers goroutines (0 = GOMAXPROCS). The scan remains a
// single sequential pass — the paper's cost model. Each block of delivered
// sequences is split across the workers by sequence; every worker values its
// sequences with the probe kernel (match.ProbeBatch) into a per-sequence row
// of a block buffer, and the rows are then folded into the sums in ascending
// sequence id. The running sums therefore see exactly match.DB's additions
// in match.DB's order, and the values are bit-identical for every worker
// count, including MatchDBValuer's one.
func ParallelMatchDBValuer(db seqdb.Scanner, c compat.Source, workers int) Valuer {
	return ParallelMatchDBValuerContext(nil, db, c, workers)
}

// ParallelMatchDBValuerContext is ParallelMatchDBValuer with cancellation
// checked between sequences and before every block is valued. Sums, counts
// and the block buffer are rebuilt per scan attempt, so a retrying scanner
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
		kernels := make([]*match.ProbeWorker, workers)
		for i := range kernels {
			kernels[i] = batch.NewWorker()
		}
		np := len(ps)
		var sums []float64
		var delivered int
		var finalFlush func() error
		err = seqdb.ScanPassContext(ctx, db, func() (func(int, []pattern.Symbol) error, error) {
			sums, delivered = make([]float64, np), 0
			// The scanner may reuse its buffer (DiskDB does), so delivered
			// sequences are copied into an arena reused across blocks.
			arena := make([]pattern.Symbol, 0, probeBlock*64)
			lens := make([]int, 0, probeBlock)
			block := make([][]pattern.Symbol, probeBlock)
			vals := make([]float64, probeBlock*np)
			flush := func() error {
				if len(lens) == 0 {
					return nil
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				// Views are cut only now: appends may have regrown the arena
				// mid-block.
				off := 0
				for i, l := range lens {
					block[i] = arena[off : off+l : off+l]
					off += l
				}
				n := len(lens)
				w := min(workers, n)
				var wg sync.WaitGroup
				wg.Add(w)
				for i := 0; i < w; i++ {
					go func(lo, hi int) {
						defer wg.Done()
						clear(vals[lo*np : hi*np])
						for s := lo; s < hi; s++ {
							kernels[i].Add(vals[s*np:(s+1)*np], block[s])
						}
					}(n*i/w, n*(i+1)/w)
				}
				wg.Wait()
				for s := 0; s < n; s++ {
					for i, v := range vals[s*np : (s+1)*np] {
						sums[i] += v
					}
				}
				delivered += n
				arena, lens = arena[:0], lens[:0]
				return nil
			}
			finalFlush = flush
			return func(id int, seq []pattern.Symbol) error {
				arena = append(arena, seq...)
				lens = append(lens, len(seq))
				if len(lens) == probeBlock {
					return flush()
				}
				return nil
			}, nil
		})
		if err != nil {
			return nil, err
		}
		// Value the last partial block of the successful attempt.
		if err := finalFlush(); err != nil {
			return nil, err
		}
		if delivered > 0 {
			for i := range sums {
				sums[i] /= float64(delivered)
			}
		}
		return sums, nil
	}
}
