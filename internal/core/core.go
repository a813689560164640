// Package core orchestrates the paper's three-phase probabilistic mining
// algorithm (§4):
//
//  1. one scan of the sequence database computing every symbol's exact match
//     and drawing a random sample (Algorithm 4.1),
//  2. in-memory level-wise mining of the sample, classifying patterns as
//     frequent / ambiguous / infrequent with the Chernoff bound and the
//     restricted spread (Algorithm 4.2, Claims 4.1/4.2),
//  3. finalizing the border of frequent patterns by probing the ambiguous
//     region against the full database — by border collapsing (Algorithm
//     4.3, the paper's contribution) or level-wise (the Toivonen-style
//     baseline), under a memory budget of counters per scan.
//
// The database is only ever accessed through seqdb.Scanner, so the number of
// full passes — the paper's headline cost metric — is directly observable.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/border"
	"repro/internal/compat"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/support"
	"repro/internal/telemetry"
)

// Finalizer selects the Phase 3 strategy.
type Finalizer int

const (
	// BorderCollapsing probes halfway layers first (Algorithm 4.3).
	BorderCollapsing Finalizer = iota
	// LevelWise probes the ambiguous region bottom-up (sampling-based
	// level-wise search, the §5.6 baseline).
	LevelWise
	// None skips Phase 3: the result is Phase 2's frequent set, with the
	// ambiguous patterns left unresolved (useful for sample-only studies).
	None
	// BorderCollapsingImplicit is the paper-verbatim Algorithm 4.3: probe
	// layers are generated between the Phase 2 borders with Algorithm 4.4,
	// and the ambiguous region is never materialized. Its lattice is the
	// paper's full sub-pattern closure — starring any subset of positions —
	// so when MaxGap < MaxLen-2 it legitimately resolves gapped patterns
	// the truncated candidate space never enumerated (all genuinely
	// frequent by Apriori). With MaxGap >= MaxLen-2 the spaces coincide and
	// the Border equals BorderCollapsing's exactly; Frequent is always the
	// downward closure of Border.
	BorderCollapsingImplicit
)

// String names the finalizer for experiment output.
func (f Finalizer) String() string {
	switch f {
	case BorderCollapsing:
		return "border-collapsing"
	case LevelWise:
		return "level-wise"
	case None:
		return "none"
	case BorderCollapsingImplicit:
		return "border-collapsing-implicit"
	default:
		return fmt.Sprintf("Finalizer(%d)", int(f))
	}
}

// Phase 2 engine names, recorded in checkpoints so Resume can dispatch to
// the pipeline variant that wrote the snapshot.
const (
	engineCandidates = "candidates"
	engineSweep      = "sweep"
	engineGrowth     = "growth"
)

// Phase2Engine selects the Phase 2 sample-mining strategy.
type Phase2Engine int

const (
	// Phase2Levelwise (the default) is the paper's breadth-first
	// generate-and-test miner: each lattice level's candidates are generated
	// from the previous level's survivors and valued in one batch
	// (miner.Engine with the kernel selected by Phase2Kernel).
	Phase2Levelwise Phase2Engine = iota
	// Phase2Growth is the depth-first pattern-growth engine: patterns grow
	// by prefix extension over projected sample databases, with optimistic
	// bound pruning (internal/growth). It produces the same labels, borders
	// and level counts as Phase2Levelwise — bit-identical for every worker
	// count — while skipping the per-level candidate materialization;
	// MaxCandidatesPerLevel therefore does not apply (the DFS holds one
	// path, not a level, in memory) and is ignored. Phase2Kernel still
	// selects the valuation discipline: KernelIncremental walks projections,
	// KernelNaive recompiles every candidate from scratch.
	Phase2Growth
)

// String names the engine for experiment output and checkpoints.
func (e Phase2Engine) String() string {
	switch e {
	case Phase2Levelwise:
		return "levelwise"
	case Phase2Growth:
		return "growth"
	default:
		return fmt.Sprintf("Phase2Engine(%d)", int(e))
	}
}

// Phase2Kernel selects how the candidate-driven Phase 2 scores each lattice
// level against the in-memory sample.
type Phase2Kernel int

const (
	// KernelIncremental (the default) extends the cached per-sequence window
	// prefix products of the previous level — one row lookup and one multiply
	// per surviving window per candidate — with the sample sharded across
	// Config.Workers goroutines. See match.Incremental; per-sequence values
	// are bit-identical to the naive kernel's, sample averages agree within
	// float64 sum reassociation.
	KernelIncremental Phase2Kernel = iota
	// KernelNaive recompiles every candidate and rescans the whole sample at
	// each level with the probe kernel's in-order fold
	// (miner.MatchSampleValuer) — no cache across levels, kept for
	// verification and comparison benchmarks.
	KernelNaive
)

// String names the kernel for experiment output.
func (k Phase2Kernel) String() string {
	switch k {
	case KernelIncremental:
		return "incremental"
	case KernelNaive:
		return "naive"
	default:
		return fmt.Sprintf("Phase2Kernel(%d)", int(k))
	}
}

// PhaseTimeouts assigns each pipeline phase a wall-clock budget; zero means
// unlimited. Phase 1 and Phase 2 budgets are hard deadlines — expiry fails
// the run with a *PhaseError wrapping context.DeadlineExceeded (with
// checkpointing enabled, completed work is preserved first). The Phase 3
// budget degrades gracefully instead: the run returns the Phase 2 frequent
// set plus everything Phase 3 confirmed before the deadline, with the
// still-ambiguous patterns annotated in Result.Unresolved and
// Result.Degraded set.
type PhaseTimeouts struct {
	Phase1, Phase2, Phase3 time.Duration
}

func (t PhaseTimeouts) validate() error {
	if t.Phase1 < 0 || t.Phase2 < 0 || t.Phase3 < 0 {
		return fmt.Errorf("core: negative phase timeout")
	}
	return nil
}

// Config parameterizes a mining run. Zero values select sensible defaults
// where noted.
type Config struct {
	// MinMatch is the significance threshold (required, in (0,1]).
	MinMatch float64
	// Delta is the Chernoff failure probability; confidence is 1-Delta.
	// Default 1e-4 (the paper's 99.99%).
	Delta float64
	// SampleSize is the number of sequences sampled in Phase 1 (clamped to
	// the database size). Default 1000.
	SampleSize int
	// MaxLen bounds total pattern length (required, >= 1).
	MaxLen int
	// MaxGap bounds runs of eternal symbols inside a pattern. Default 0.
	MaxGap int
	// MaxCandidatesPerLevel caps Phase 2's per-level candidate count
	// (0 = unlimited).
	MaxCandidatesPerLevel int
	// MemBudget is the number of pattern counters Phase 3 may hold per scan.
	// Default 10000.
	MemBudget int
	// Finalizer selects the Phase 3 strategy. Default BorderCollapsing.
	Finalizer Finalizer
	// Workers > 1 splits each block of a Phase 3 probe scan's sequences
	// across that many goroutines (-1 = GOMAXPROCS); the scan itself remains
	// one sequential pass, and the per-sequence values are folded in
	// sequence order, so Phase 3 values are bit-identical for every worker
	// count. The same count shards Phase 2's incremental kernel across the
	// sample. Default 0 (one worker).
	Workers int
	// Phase3Shards > 1 scatters each Phase 3 probe scan over that many
	// deterministic database shards, valued concurrently with the probe
	// kernel and gathered in ascending shard order (one logical pass; see
	// miner.ShardedMatchDBValuer). When the database is
	// already a seqdb.Sharded (a native multi-file shard set) its own shard
	// count is used and this value is ignored. Workers, when > 0, caps the
	// concurrently-scanning shards. Values are bit-identical for every
	// shard/worker count. 0 or 1 keeps the single-pass probe path. Like
	// Workers, a tuning knob excluded from the checkpoint config hash.
	Phase3Shards int
	// ProbeValuer, when non-nil, overrides the Phase 3 probe kernel entirely:
	// it receives the Phase 3 context, the database (wrapped for telemetry
	// when Metrics is set), and the compatibility source, and must return a
	// Valuer whose values are bit-identical to the built-in kernels' for the
	// same database — it is an execution-layout knob (e.g. a distributed
	// scatter via miner.RemoteShardValuer), not a semantic one, and like
	// Workers it is excluded from the checkpoint config hash, so a local run
	// can resume a remote one and vice versa.
	ProbeValuer func(ctx context.Context, db seqdb.Scanner, c compat.Source) miner.Valuer
	// Phase2Kernel selects the sample-scoring kernel for the
	// candidate-driven Phase 2. Default KernelIncremental. A tuning knob:
	// classifications agree between kernels, so it is excluded from the
	// checkpoint config hash.
	Phase2Kernel Phase2Kernel
	// Phase2Engine selects the Phase 2 mining strategy: Phase2Levelwise
	// (default, the paper's breadth-first miner) or Phase2Growth (the
	// depth-first pattern-growth engine — same labels and borders,
	// bit-identical across worker counts, no per-level candidate
	// materialization). Recorded in the checkpoint config hash: the engines
	// agree on results but not on intermediate snapshots, so a snapshot is
	// resumed by the engine that wrote it.
	Phase2Engine Phase2Engine
	// Phase2CacheBudget bounds the incremental kernel's prefix cache in
	// bytes (0 = match.DefaultCacheBudget, 256 MiB; negative = unlimited).
	// Exceeding it falls back to compiled-matcher recomputation for the
	// overflowing patterns — slower, never wrong. The growth engine applies
	// the same budget to the projection bytes held along a DFS path.
	Phase2CacheBudget int64
	// Rng drives the sampling; required for reproducibility.
	Rng *rand.Rand
	// Metrics, when non-nil, collects pipeline telemetry: per-phase scan
	// traffic and wall time, sample size, lattice and probe counters. The
	// database is transparently wrapped to attribute scan traffic to the
	// phase that caused it. Nil (the default) disables collection entirely —
	// the instrumented paths cost one nil check each.
	Metrics *telemetry.Metrics
	// Checkpoint, when non-nil, persists pipeline progress to
	// Checkpoint.Path as a crash-atomic snapshot (after Phase 1, after
	// Phase 2, and — by default — after every Phase 3 probe scan), and a
	// final snapshot is written before a failed or cancelled run returns
	// its *PhaseError. Resume the run with core.Resume. Nil disables
	// checkpointing.
	Checkpoint *CheckpointPolicy
	// PhaseTimeouts bounds each phase's wall time (zero = unlimited). The
	// Phase 3 budget degrades gracefully rather than failing; see
	// PhaseTimeouts.
	PhaseTimeouts PhaseTimeouts
}

// probeValuer picks the Phase 3 probe reduction — the running sum of one
// pass (on Workers goroutines), or per-block sums scattered over database
// shards — both over the same probe kernel, cancellable through ctx and
// retry-safe when db re-runs failed passes. The sharded path records its own
// telemetry (it scans shards directly, not through the telemetry wrapper),
// so it receives the unwrapped scanner plus the Metrics.
func (c *Config) probeValuer(ctx context.Context, db seqdb.Scanner, src compat.Source) miner.Valuer {
	if c.ProbeValuer != nil {
		return c.ProbeValuer(ctx, db, src)
	}
	if sh := c.shardedDB(db); sh != nil {
		return miner.ShardedMatchDBValuerContext(ctx, sh, src, c.Workers, c.Metrics)
	}
	workers := c.Workers
	if workers == 0 {
		workers = 1 // -1 asks the valuer for GOMAXPROCS
	}
	return miner.ParallelMatchDBValuerContext(ctx, db, src, workers)
}

// shardedDB resolves the database the scatter-gather probe path scans: the
// scanner's own shard set when the unwrapped database is a *seqdb.Sharded
// with more than one shard, a Phase3Shards-way sharded view of it otherwise,
// or nil when the single-pass path should be kept.
func (c *Config) shardedDB(db seqdb.Scanner) *seqdb.Sharded {
	raw := db
	for {
		u, ok := raw.(interface{ Unwrap() seqdb.Scanner })
		if !ok {
			break
		}
		raw = u.Unwrap()
	}
	if sh, ok := raw.(*seqdb.Sharded); ok && sh.NumShards() > 1 {
		return sh
	}
	if c.Phase3Shards > 1 {
		return seqdb.ShardScanner(raw, c.Phase3Shards)
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.Delta == 0 {
		c.Delta = 1e-4
	}
	if c.SampleSize == 0 {
		c.SampleSize = 1000
	}
	if c.MemBudget == 0 {
		c.MemBudget = 10000
	}
}

func (c *Config) validate() error {
	if c.MinMatch <= 0 || c.MinMatch > 1 {
		return fmt.Errorf("core: MinMatch %v outside (0,1]", c.MinMatch)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("core: Delta %v outside (0,1)", c.Delta)
	}
	if c.SampleSize < 1 {
		return fmt.Errorf("core: SampleSize %d < 1", c.SampleSize)
	}
	if c.MaxLen < 1 {
		return fmt.Errorf("core: MaxLen %d < 1", c.MaxLen)
	}
	if c.MaxGap < 0 {
		return fmt.Errorf("core: negative MaxGap")
	}
	if c.MemBudget < 1 {
		return fmt.Errorf("core: MemBudget %d < 1", c.MemBudget)
	}
	if c.Rng == nil {
		return fmt.Errorf("core: Rng is required")
	}
	if c.Finalizer < BorderCollapsing || c.Finalizer > BorderCollapsingImplicit {
		return fmt.Errorf("core: unknown finalizer %d", c.Finalizer)
	}
	if c.Phase2Kernel < KernelIncremental || c.Phase2Kernel > KernelNaive {
		return fmt.Errorf("core: unknown Phase 2 kernel %d", c.Phase2Kernel)
	}
	if c.Phase2Engine < Phase2Levelwise || c.Phase2Engine > Phase2Growth {
		return fmt.Errorf("core: unknown Phase 2 engine %d", c.Phase2Engine)
	}
	if c.Phase3Shards < 0 {
		return fmt.Errorf("core: negative Phase3Shards")
	}
	if err := c.PhaseTimeouts.validate(); err != nil {
		return err
	}
	if c.Checkpoint != nil && c.Checkpoint.Path == "" {
		return fmt.Errorf("core: Checkpoint.Path is required when checkpointing is enabled")
	}
	return nil
}

// PhaseError attributes a mining failure — an I/O error, corruption, or a
// context cancellation — to the pipeline phase that raised it. It unwraps
// to the underlying cause, so errors.Is(err, context.Canceled) and
// errors.As for seqdb.CorruptError keep working through it.
type PhaseError struct {
	// Phase is the pipeline phase that failed (1, 2, or 3).
	Phase int
	// Err is the underlying failure.
	Err error
}

func (e *PhaseError) Error() string { return fmt.Sprintf("core: phase %d: %v", e.Phase, e.Err) }

func (e *PhaseError) Unwrap() error { return e.Err }

// Result reports a complete mining run.
type Result struct {
	// Frequent is the final frequent set and Border its border (FQT).
	Frequent *pattern.Set
	Border   *pattern.Set
	// SymbolMatch holds Phase 1's exact per-symbol matches.
	SymbolMatch []float64
	// SampleSize is the number of sequences actually sampled.
	SampleSize int
	// Phase2 is the sample-mining result (labels, borders, level counts).
	Phase2 *miner.Result
	// Phase3 is the finalization result (nil when Finalizer is None or no
	// ambiguous patterns remained).
	Phase3 *border.Result
	// Scans is the total number of full database scans (Phase 1's single
	// scan plus Phase 3's probe scans).
	Scans int
	// Phase timings, for the Figure 14 CPU-time comparison.
	Phase1Time, Phase2Time, Phase3Time time.Duration
	// PhaseReached is the highest phase that started (1..3) — on a failed
	// or cancelled run, the phase the run died in.
	PhaseReached int
	// ScanStats reports the scanner's pass/retry/error counters when db
	// implements seqdb.StatsReporter (e.g. a seqdb.RetryScanner); zero
	// otherwise.
	ScanStats seqdb.ScanStats
	// Telemetry aliases Config.Metrics for the run (nil when collection was
	// disabled); render it with Telemetry.Snapshot().
	Telemetry *telemetry.Metrics
	// Degraded reports that Phase 3 could not finish — its deadline budget
	// expired, or a distributed probe lost a shard — and the result was
	// assembled from the work completed: Frequent holds the Phase 2
	// frequent set plus every pattern Phase 3 confirmed in time, and
	// Unresolved annotates the patterns left ambiguous.
	Degraded bool
	// DegradeReason identifies what degraded the run (DegradePhase3Timeout
	// or DegradeShardLost; empty for complete runs).
	DegradeReason string
	// Unresolved lists the still-ambiguous patterns of a degraded run with
	// their sample estimates and Chernoff intervals (empty otherwise).
	Unresolved []Unresolved
	// ResumedFrom is the highest phase the resumed-from checkpoint had
	// recorded (0 for a fresh run).
	ResumedFrom int
	// ScansSkipped is the number of full database scans this run avoided by
	// resuming from a checkpoint (Phase 1's scan plus recorded probe
	// scans). Scans reports the run's logical total, so a resumed run's
	// Scans matches the uninterrupted run's; the scans actually performed
	// by this process are Scans - ScansSkipped.
	ScansSkipped int
}

// Degradation reasons (machine-readable, kebab-case).
const (
	// DegradePhase3Timeout: the Phase 3 wall-clock budget expired.
	DegradePhase3Timeout = "phase3-timeout"
	// DegradeShardLost: a distributed probe exhausted every node for some
	// shard (shardrpc.ErrShardLost); the run is resumable from its final
	// checkpoint once the shard set is reachable again.
	DegradeShardLost = "shard-lost"
)

// Unresolved is an ambiguous pattern a degraded run could not finalize
// before its Phase 3 deadline. The pattern's true match lies within
// [SampleMatch-Epsilon, SampleMatch+Epsilon] with probability 1-Delta
// (Claim 4.1 with the restricted spread) — the information a Finalizer ==
// None run would report.
type Unresolved struct {
	Pattern pattern.Pattern
	// SampleMatch is Phase 2's sample estimate of the pattern's match.
	SampleMatch float64
	// Epsilon is the Chernoff half-width at the pattern's restricted spread.
	Epsilon float64
}

// captureScanStats copies the scanner's retry counters into the result when
// the scanner tracks them.
func (r *Result) captureScanStats(db seqdb.Scanner) {
	if sr, ok := db.(seqdb.StatsReporter); ok {
		r.ScanStats = sr.ScanStats()
	}
}

// Mine runs the full three-phase algorithm over db with the compatibility
// source c.
func Mine(db seqdb.Scanner, c compat.Source, cfg Config) (*Result, error) {
	return MineContext(context.Background(), db, c, cfg)
}

// MineContext is Mine with cooperative cancellation: ctx is checked between
// sequences in Phase 1's scan, between lattice levels in Phase 2, and
// between (and within) probe scans in Phase 3, so a cancelled run aborts
// within one sequence block. Any phase failure — cancellation, I/O error,
// corruption — is returned as a *PhaseError naming the phase, wrapping the
// cause (errors.Is(err, context.Canceled) holds for cancelled runs).
//
// On a phase failure the partial Result is returned alongside the error: it
// carries PhaseReached, the phases' outputs completed so far, and the
// scanner's ScanStats, so callers (e.g. a SIGINT handler) can report how far
// the run got.
//
// When db re-runs failed passes (a seqdb.RetryScanner over a flaky store),
// every scan in the pipeline is retry-safe: per-pass counting state is
// rebuilt per attempt, and only completed passes count toward Scans.
//
// With cfg.Checkpoint set, progress is persisted to disk as it is made and a
// killed run can be continued with Resume; cfg.PhaseTimeouts bounds each
// phase's wall time, with a Phase 3 expiry degrading gracefully (see
// PhaseTimeouts and Result.Degraded).
func MineContext(ctx context.Context, db seqdb.Scanner, c compat.Source, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	engine := engineCandidates
	if cfg.Phase2Engine == Phase2Growth {
		engine = engineGrowth
	}
	return mineContext(ctx, db, c, cfg, engine, nil)
}

// implicitLower assembles CollapseImplicit's lower border: the FQT plus the
// frequent 1-patterns, which the implicit layer generation needs as
// generators beneath every region member.
func implicitLower(p2 *miner.Result) *pattern.Set {
	lower := p2.FQT.Clone()
	p2.Frequent.ForEach(func(p pattern.Pattern) bool {
		if p.K() == 1 {
			lower.Add(p)
		}
		return true
	})
	return lower
}

// Phase1 performs Algorithm 4.1: one scan computing every symbol's match and
// drawing a sequential random sample of up to n sequences.
func Phase1(db seqdb.Scanner, c compat.Source, n int, rng *rand.Rand) ([]float64, [][]pattern.Symbol, error) {
	return Phase1Context(nil, db, c, n, rng)
}

// Phase1Context is Phase1 with cancellation checked between sequences. The
// accumulator and sampler are rebuilt per scan attempt, so a retrying
// scanner can re-run a failed pass without double-counting; a retried pass
// redraws its sample with fresh rng draws (statistically equivalent).
func Phase1Context(ctx context.Context, db seqdb.Scanner, c compat.Source, n int, rng *rand.Rand) ([]float64, [][]pattern.Symbol, error) {
	symbolMatch, sample, _, err := phase1Run(ctx, db, c, n, rng)
	return symbolMatch, sample, err
}

// Exhaustive mines the exact frequent set of db under the match measure with
// one scan per lattice level — the deterministic reference the experiments
// compare against (and the generalization of prior support-model algorithms
// the paper discusses in §4's opening).
func Exhaustive(db seqdb.Scanner, c compat.Source, minMatch float64, opts miner.Options) (*miner.Result, error) {
	return miner.Exhaustive(c.Size(), miner.MatchDBValuer(db, c), minMatch, opts)
}

// ExhaustiveSupport mines the exact frequent set under the classic support
// measure (the §5.1 comparison model).
func ExhaustiveSupport(db seqdb.Scanner, minSupport float64, m int, opts miner.Options) (*miner.Result, error) {
	return miner.Exhaustive(m, miner.DBValuer(db, support.Support{}), minSupport, opts)
}
