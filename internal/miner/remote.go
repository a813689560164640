package miner

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/telemetry"
)

// RemoteShardValuer is ShardedMatchDBValuer with the shard scans pushed over
// the network: each probe batch is scattered to the pool's nodes — one RPC
// per shard of sh's layout — and the returned per-block (sums, count)
// partials are gathered with the same ascending-order merge as the local
// path. sh supplies only the layout (shard count, block size, total); its
// sequences are never read by the coordinator.
//
// Determinism: remote partials are computed by the identical probe kernel
// over the identical probe blocks, and Go's JSON float64 encoding
// round-trips bit-exactly, so the gathered values are bit-identical to the
// single-machine sharded path's no matter which node served
// which shard, how often shards were reassigned, or which hedge won.
// Failure handling — reassignment, backoff, hedging, shard loss — lives in
// the Pool; a shard no node can serve surfaces as an error wrapping
// shardrpc.ErrShardLost, which the pipeline degrades on gracefully.
func RemoteShardValuer(sh *seqdb.Sharded, pool *shardrpc.Pool, c compat.Source, workers int) Valuer {
	return RemoteShardValuerContext(nil, sh, pool, c, workers, nil)
}

// RemoteShardValuerContext is RemoteShardValuer with cancellation and
// telemetry. workers bounds the concurrently in-flight shard RPCs (<= 0
// scatters all shards at once — probes are network-bound, not CPU-bound, on
// the coordinator). Byte telemetry is estimated: the bytes were read on the
// workers.
func RemoteShardValuerContext(ctx context.Context, sh *seqdb.Sharded, pool *shardrpc.Pool, c compat.Source, workers int, m *telemetry.Metrics) Valuer {
	return func(ps []pattern.Pattern) ([]float64, error) {
		if len(ps) == 0 {
			return nil, nil
		}
		if ctx == nil {
			ctx = context.Background()
		}
		shards := sh.NumShards()
		base := shardrpc.NewProbeRequest(c, ps, sh.Len(), shards, sh.BlockSize())
		conc := workers
		if conc <= 0 || conc > shards {
			conc = shards
		}

		start := time.Now()
		blocks := make([][]shardrpc.BlockPartial, shards)
		var symbols atomic.Int64
		err := scatter(shards, conc, func(s int) error {
			req := *base
			req.Shard = s
			r, err := pool.Probe(ctx, &req)
			if err == nil {
				blocks[s] = r.Blocks
				symbols.Add(r.Symbols)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		sums, n, err := foldBlocks(len(ps), blocks)
		if err != nil {
			return nil, err
		}
		sh.NotePass()
		m.ScanDone(4*symbols.Load(), true)
		m.ShardScan(time.Since(start), int64(n), -1)
		return sums, nil
	}
}
