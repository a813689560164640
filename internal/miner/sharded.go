package miner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/telemetry"
)

// ShardedMatchDBValuer is MatchDBValuer scattered over database shards: one
// logical probe scan fans the batch out to per-shard worker goroutines, each
// valuing every pattern against its shard with the probe kernel
// (match.ProbeBatch), and the per-shard (sum, count) pairs are gathered with
// an ascending-order merge.
//
// Determinism: every shard accumulates on the database's fixed probe blocks
// (seqdb.Sharded.BlockSize — a function of the database alone) and the
// gather folds block sums in ascending global id order, so the returned
// values are bit-identical for every shard and worker count over the same
// database — the Phase 2 kernel's merge discipline applied to Phase 3.
// Per-sequence values are those of the single-pass valuers (the same
// kernel); only the summation grouping — per-block sums, then the block
// fold — distinguishes the result from their running sum, within float
// addition reassociation.
func ShardedMatchDBValuer(sh *seqdb.Sharded, c compat.Source, workers int) Valuer {
	return ShardedMatchDBValuerContext(nil, sh, c, workers, nil)
}

// ShardedMatchDBValuerContext is ShardedMatchDBValuer with cancellation
// checked between sequences, retry-safe per-shard passes (each shard's
// accumulator is rebuilt per attempt), and telemetry: every delivered
// sequence, one ScanDone per logical pass with real byte counts whenever the
// backing stores report them (DiskDB/GzipDB; estimation only for
// memory-backed shards), and one ShardScan per shard with its wall time.
// workers bounds the concurrently-scanning shards (<= 0 scans all shards at
// once, capped at GOMAXPROCS).
func ShardedMatchDBValuerContext(ctx context.Context, sh *seqdb.Sharded, c compat.Source, workers int, m *telemetry.Metrics) Valuer {
	return func(ps []pattern.Pattern) ([]float64, error) {
		if len(ps) == 0 {
			// An empty batch needs no pass at all (the probe loop never
			// issues one, but a Valuer must not waste a scan on it).
			return nil, nil
		}
		batch, err := match.CompileProbeBatch(c, ps)
		if err != nil {
			return nil, err
		}
		shards := sh.NumShards()
		conc := workers
		if conc <= 0 || conc > shards {
			conc = shards
		}
		if max := runtime.GOMAXPROCS(0); workers <= 0 && conc > max {
			conc = max
		}

		passBytes, passReal := seqdb.RealBytes(sh)
		var totalSymbols atomic.Int64
		blocks := make([][]shardrpc.BlockPartial, shards)
		err = scatter(shards, conc, func(s int) error {
			return scanShard(ctx, sh.Shard(s), batch, sh.BlockSize(), &blocks[s], &totalSymbols, m)
		})
		if err != nil {
			return nil, err
		}
		sums, _, err := foldBlocks(len(ps), blocks)
		if err != nil {
			return nil, err
		}
		sh.NotePass()
		if passReal {
			now, _ := seqdb.RealBytes(sh)
			m.ScanDone(now-passBytes, false)
		} else {
			m.ScanDone(4*totalSymbols.Load(), true)
		}
		return sums, nil
	}
}

// scatter runs fn for every shard index on conc goroutines and returns the
// first error in shard order, so the reported failure is deterministic even
// when several shards fail at once.
func scatter(shards, conc int, fn func(s int) error) error {
	errs := make([]error, shards)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(conc)
	for w := 0; w < conc; w++ {
		go func() {
			defer wg.Done()
			for s := range next {
				errs[s] = fn(s)
			}
		}()
	}
	for s := 0; s < shards; s++ {
		next <- s
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// foldBlocks is the gather: it folds the shards' block partials in
// ascending global id order — shards are contiguous ascending ranges, so
// shard order is block order — and returns the np database values and the
// number of sequences they cover.
func foldBlocks(np int, shards [][]shardrpc.BlockPartial) ([]float64, int, error) {
	sums := make([]float64, np)
	n := 0
	for s, blocks := range shards {
		for _, b := range blocks {
			if len(b.Sums) != np {
				return nil, 0, fmt.Errorf("miner: shard %d returned %d sums for a %d-pattern batch", s, len(b.Sums), np)
			}
			for i, v := range b.Sums {
				sums[i] += v
			}
			n += b.N
		}
	}
	return average(sums, n), n, nil
}

// scanShard runs one shard's probe pass through the per-block reduction
// (shardrpc.ScanBlocks) and records the shard's telemetry (wall time,
// sequences, real bytes when the shard reports them).
func scanShard(ctx context.Context, shard seqdb.Scanner, batch *match.ProbeBatch, block int, out *[]shardrpc.BlockPartial, totalSymbols *atomic.Int64, m *telemetry.Metrics) error {
	start := time.Now()
	startBytes, realBytes := seqdb.RealBytes(shard)
	blocks, symbols, err := shardrpc.ScanBlocks(ctx, shard, batch, block, m.Sequence)
	if err != nil {
		return err
	}
	totalSymbols.Add(symbols)
	*out = blocks
	var seqs int64
	for _, b := range blocks {
		seqs += int64(b.N)
	}
	bytes := int64(-1)
	if realBytes {
		now, _ := seqdb.RealBytes(shard)
		bytes = now - startBytes
	}
	m.ShardScan(time.Since(start), seqs, bytes)
	return nil
}
