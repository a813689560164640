// Package shardrpc is the distributed Phase 3 transport: the HTTP/JSON
// probe-batch protocol between a coordinating miner and remote shard workers,
// plus the coordinator-side Pool that keeps a scatter-gather probe pass
// running through slow, flaky, and dead nodes.
//
// The protocol ships one probe batch per (shard, batch) pair: the request
// carries the compiled inputs (compatibility cells, patterns, and the shard
// layout to validate against), the response the shard's per-probe-block
// (sums, count) partials in ascending block order. Those are exactly the
// partials the local scatter-gather valuer (miner.ShardedMatchDBValuer)
// accumulates, computed by the same probe kernel (match.ProbeBatch) over
// the same fixed probe blocks — and Go's JSON encoding of float64 is
// shortest-round-trip, so every finite sum crosses the wire bit-exactly.
// A coordinator that folds remote blocks in ascending global id order
// therefore produces results bit-identical to the single-machine path, no
// matter which node served which shard, how often a shard was reassigned, or
// which of a hedged pair of probes won.
//
// Fault model: any node can serve any shard (workers open the full shard
// set; "ownership" is a coordinator-side scheduling preference), so the Pool
// reassigns a shard to the next healthy node on timeout or connection
// failure, retries with full-jitter capped-exponential backoff, and hedges
// the straggler tail. A shard no node can serve surfaces as an error wrapping
// ErrShardLost, which the pipeline degrades on gracefully (core.Result
// Unresolved + resumable checkpoint) instead of failing the run.
package shardrpc

import (
	"errors"
	"fmt"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// ProbeSchema identifies the probe request/response format.
const ProbeSchema = "lsp-shard-probe/v1"

// ErrShardLost reports that every node in the pool failed to serve a shard
// within the retry budget. The mining pipeline treats a Phase 3 error
// wrapping it as a graceful-degradation trigger: the still-ambiguous
// patterns are surfaced with their Chernoff intervals and a final checkpoint
// is written, so the exact answer is resumable once the shard returns.
var ErrShardLost = errors.New("shardrpc: shard lost")

// Cell is one non-zero compatibility cell, shipped with every probe request
// so any node can serve any shard statelessly.
type Cell struct {
	T int32   `json:"t"`
	O int32   `json:"o"`
	P float64 `json:"p"`
}

// ProbeRequest asks a worker to match a probe batch against one shard of the
// fixed block-aligned layout. Total and Block let the worker verify it holds
// the same database the coordinator is mining before any sums are trusted.
type ProbeRequest struct {
	Schema string `json:"schema"`
	// Shards is the layout's shard count; Shard the index to scan.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`
	// Total is the database's sequence count; Block its probe-block length
	// (a function of Total alone — see seqdb.Sharded.BlockSize).
	Total int `json:"total"`
	Block int `json:"block"`
	// M is the alphabet size; Cells the non-zero compatibility entries.
	M     int    `json:"m"`
	Cells []Cell `json:"cells"`
	// Patterns is the probe batch (eternal symbols are negative).
	Patterns []pattern.Pattern `json:"patterns"`
}

// BlockPartial is one probe block's gather payload: the per-pattern match
// sums over the block's sequences, and the sequence count.
type BlockPartial struct {
	Sums []float64 `json:"sums"`
	N    int       `json:"n"`
}

// ProbeResponse returns a shard's per-block partials in ascending global id
// order, plus scan-size counters for the coordinator's telemetry.
type ProbeResponse struct {
	Schema    string         `json:"schema"`
	Blocks    []BlockPartial `json:"blocks"`
	Sequences int64          `json:"sequences"`
	Symbols   int64          `json:"symbols"`
}

// NewProbeRequest assembles the shared (shard-independent) part of a batch's
// requests; the caller sets Shard per scatter target. The matrix is encoded
// as its non-zero cells, which a worker rebuilds into a compat.SparseMatrix —
// the probe kernel's matrix rows carry identical float64 values either way.
func NewProbeRequest(c compat.Source, ps []pattern.Pattern, total, shards, block int) *ProbeRequest {
	m := c.Size()
	var cells []Cell
	for t := 0; t < m; t++ {
		for _, e := range c.ObservedGiven(pattern.Symbol(t)) {
			cells = append(cells, Cell{T: int32(t), O: int32(e.Sym), P: e.P})
		}
	}
	return &ProbeRequest{
		Schema:   ProbeSchema,
		Shards:   shards,
		Total:    total,
		Block:    block,
		M:        m,
		Cells:    cells,
		Patterns: ps,
	}
}

// Matrix rebuilds the request's compatibility source.
func (r *ProbeRequest) Matrix() (compat.Source, error) {
	cells := make([]compat.Cell, len(r.Cells))
	for i, c := range r.Cells {
		cells[i] = compat.Cell{True: pattern.Symbol(c.T), Observed: pattern.Symbol(c.O), P: c.P}
	}
	src, err := compat.NewSparse(r.M, cells)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: matrix: %w", err)
	}
	return src, nil
}

// StatusError is a non-2xx HTTP response from a worker, carrying the
// machine-readable reason when the worker sent one. 4xx statuses are
// protocol or configuration errors (bad layout, bad auth) and fail the run;
// 5xx and 429 count as node failures the Pool retries elsewhere.
type StatusError struct {
	Code   int
	Reason string
	Msg    string
}

func (e *StatusError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("shardrpc: status %d (%s): %s", e.Code, e.Reason, e.Msg)
	}
	return fmt.Sprintf("shardrpc: status %d: %s", e.Code, e.Msg)
}

// IsNodeFailure classifies a probe error: true for failures that indict the
// node (transport errors, timeouts, 5xx, 429) and are worth retrying on
// another node; false for protocol/configuration errors (4xx) and caller
// cancellation, which no reassignment can fix.
func IsNodeFailure(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500 || se.Code == 429
	}
	// Transport-level failures (connection refused, reset, per-attempt
	// timeout) all indict the node. Caller cancellation is checked by the
	// Pool against its own context before classification, so every other
	// error landing here is a node failure.
	return true
}
