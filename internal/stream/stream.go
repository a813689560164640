// Package stream maintains the three-phase mining pipeline's state across
// batches of an append-only sequence log (seqdb.AppendDB), so a growing
// database is re-mined incrementally instead of from scratch.
//
// What is maintained between batches mirrors the pipeline's phases:
//
//   - Phase 1: a long-lived match.SymbolAccumulator extends the per-symbol
//     match sums with each appended sequence, and a reservoir sample of
//     SampleSize sequences is kept over the live window. Reservoir draws are
//     stateless — each offer's draw is derived from (Seed, window-relative
//     index) alone — so a restored or rebuilt stream reproduces the exact
//     sample the uninterrupted stream holds, with no RNG replay.
//   - Phase 2: every candidate the last mine evaluated keeps its sample match
//     sum. On each batch the unclamped Chernoff labels are recomputed from
//     those sums; only when some label changes (a border shift), a reservoir
//     replacement perturbed the sample, or the candidate space was truncated
//     does the stream re-mine the in-memory sample — no database scan either
//     way.
//   - Phase 3: previously probed patterns keep their exact window match sums,
//     so a pattern probed in an earlier batch is resolved without a scan.
//     Only never-probed patterns cost a pass over the live window. Probe
//     order never changes the final frequent set (exact values plus
//     anti-monotone Apriori propagation), so serving cached probes first is
//     purely an execution layout.
//
// Every maintained sum — the re-anchor over the whole sample after a
// re-mine, the per-batch extension of sample and exact sums, and the window
// pass for new probes — is kept with the probe kernel's in-order fold
// (match.Fold) on Workers goroutines: one addition per sequence, in sample
// or arrival order, so the sums are bit-identical to a fresh in-order scan
// for every worker count.
//
// Sliding-window expiry (Config.Window, or an external ExpireBefore on the
// log) moves the window start; the stream then rebuilds its Phase 1 state
// from the live window, identical to a fresh stream over a log holding only
// the live window.
//
// Equivalence: with SampleSize >= the window size and the naive Phase 2
// kernel, every Advance yields results bit-identical to core.Mine over the
// consumed window. With the incremental kernel, values agree within float64
// sum reassociation (the kernels' documented relationship) and labels agree
// away from exact Chernoff boundaries.
package stream

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/border"
	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// Kernel selects the sample-scoring kernel for the scoped re-mine, mirroring
// core.Phase2Kernel.
type Kernel int

const (
	// KernelIncremental scores re-mine levels with the prefix-extension
	// kernel sharded across Workers (the default, matching core.Mine's).
	KernelIncremental Kernel = iota
	// KernelNaive recompiles every candidate against the whole sample —
	// slower, and the bit-exactness reference for the maintained sums.
	KernelNaive
)

// Config parameterizes a stream. The mining parameters carry the same
// semantics as core.Config's.
type Config struct {
	// C is the compatibility source (required).
	C compat.Source
	// MinMatch is the significance threshold (required, in (0,1]).
	MinMatch float64
	// Delta is the Chernoff failure probability. Default 1e-4.
	Delta float64
	// SampleSize is the reservoir capacity (required, >= 1). With
	// SampleSize >= the live window the sample is the whole window in append
	// order — exactly the sample a batch run with the same cap draws.
	SampleSize int
	// MaxLen bounds total pattern length (required, >= 1).
	MaxLen int
	// MaxGap bounds runs of eternal symbols inside a pattern.
	MaxGap int
	// MaxCandidatesPerLevel caps each re-mine level (0 = unlimited). A
	// truncated mine disables the incremental skip (truncation depends on
	// value ordering, not just labels), forcing a re-mine every batch.
	MaxCandidatesPerLevel int
	// MemBudget is the number of pattern counters a probe round may hold.
	// Default 10000.
	MemBudget int
	// Workers shards the re-mine's incremental kernel and the in-order fold
	// that keeps the sample and exact sums (0/1 sequential, negative =
	// GOMAXPROCS).
	Workers int
	// Kernel selects the re-mine kernel. Default KernelIncremental.
	Kernel Kernel
	// CacheBudget bounds the incremental kernel's prefix cache in bytes
	// (0 = match.DefaultCacheBudget).
	CacheBudget int64
	// Seed drives the stateless reservoir draws (required for
	// reproducibility; any fixed value works).
	Seed int64
	// Window, when > 0, keeps at most that many live sequences: Advance
	// expires older sequences from the log (requires a writable AppendDB)
	// before consuming the batch. 0 leaves expiry to the caller.
	Window int
	// Metrics, when non-nil, receives streaming telemetry (batches, appended
	// and expired sequences, re-probes avoided, border shifts, re-mines) plus
	// the probe-loop counters. Nil disables collection.
	Metrics *telemetry.Metrics
}

func (c *Config) setDefaults() {
	if c.Delta == 0 {
		c.Delta = 1e-4
	}
	if c.MemBudget == 0 {
		c.MemBudget = 10000
	}
	if c.Workers < 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

func (c *Config) validate() error {
	if c.C == nil {
		return fmt.Errorf("stream: compatibility source is required")
	}
	if c.MinMatch <= 0 || c.MinMatch > 1 {
		return fmt.Errorf("stream: MinMatch %v outside (0,1]", c.MinMatch)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("stream: Delta %v outside (0,1)", c.Delta)
	}
	if c.SampleSize < 1 {
		return fmt.Errorf("stream: SampleSize %d < 1", c.SampleSize)
	}
	if c.MaxLen < 1 {
		return fmt.Errorf("stream: MaxLen %d < 1", c.MaxLen)
	}
	if c.MaxGap < 0 || c.MaxCandidatesPerLevel < 0 || c.Window < 0 {
		return fmt.Errorf("stream: negative bound")
	}
	if c.MemBudget < 1 {
		return fmt.Errorf("stream: MemBudget %d < 1", c.MemBudget)
	}
	if c.Kernel < KernelIncremental || c.Kernel > KernelNaive {
		return fmt.Errorf("stream: unknown kernel %d", c.Kernel)
	}
	return nil
}

// Result reports one Advance: the finalized frequent set over the consumed
// window plus what the incremental machinery did to get there. Phase2 is the
// stream's live mining state — it is updated in place by later Advances, so
// callers retaining it across batches must copy what they need.
type Result struct {
	// Frequent is the exact frequent set over the consumed window and Border
	// its border (FQT).
	Frequent *pattern.Set
	Border   *pattern.Set
	// SymbolMatch holds the maintained exact per-symbol matches.
	SymbolMatch []float64
	// SampleSize is the current reservoir occupancy.
	SampleSize int
	// Phase2 is the current sample-mining state (values and spreads are
	// refreshed in place on skipped batches). Nil for an empty window.
	Phase2 *miner.Result
	// Phase3 reports the probe loop (nil when nothing was ambiguous).
	Phase3 *border.Result
	// Appended and Expired count the sequences consumed and dropped by this
	// batch; Total is the absolute id past the last consumed sequence.
	Appended, Expired, Total int
	// Remined reports that this batch fell back to a scoped re-mine of the
	// sample; BorderShifted that a maintained label change forced it.
	Remined       bool
	BorderShifted bool
	// ReprobesAvoided counts ambiguous patterns resolved from cached exact
	// sums without a scan; Scans counts the window passes probing cost.
	ReprobesAvoided int
	Scans           int
}

// Stream is the incremental mining state over one append log. Not safe for
// concurrent use; one Advance at a time.
type Stream struct {
	db  *seqdb.AppendDB
	cfg Config

	cursor      int // absolute id of the next unconsumed sequence
	windowStart int // absolute id of the window the state was built over

	acc    *match.SymbolAccumulator
	sample [][]pattern.Symbol

	symbolMatch []float64
	lastMine    *miner.Result
	evaluated   []pattern.Pattern  // last mine's candidates, key-sorted
	sampleSums  map[string]float64 // straight sample match sums per candidate
	prevRaw     map[string]chernoff.Label
	exactSums   map[string]float64 // straight window match sums per probed pattern
	probed      []pattern.Pattern  // exactSums keys as patterns, key-sorted
	dirty       bool               // sample perturbed: maintained sums invalid

	grew int // sample members appended (at the tail) by the current batch
}

// New builds a stream over db. No data is consumed until Advance.
func New(db *seqdb.AppendDB, cfg Config) (*Stream, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Stream{
		db:          db,
		cfg:         cfg,
		cursor:      db.Start(),
		windowStart: db.Start(),
		acc:         match.NewSymbolAccumulator(cfg.C),
		exactSums:   make(map[string]float64),
		dirty:       true,
	}
	return s, nil
}

// State is the stream's serializable progress — everything beyond the config
// and the log itself needed to continue bit-identically after a restart. The
// sample-mining result travels separately (checkpoint's Phase2State already
// serializes a miner.Result).
type State struct {
	// Cursor and WindowStart delimit the consumed window [WindowStart, Cursor).
	Cursor, WindowStart int
	// Sample is the reservoir contents in maintained order.
	Sample [][]pattern.Symbol
	// SymbolSums are the accumulator's raw per-symbol sums.
	SymbolSums []float64
	// SampleSums and ExactSums are the maintained per-pattern sums.
	SampleSums map[string]float64
	ExactSums  map[string]float64
}

// State captures the stream's current progress. Slices and maps are copies.
func (s *Stream) State() *State {
	st := &State{
		Cursor:      s.cursor,
		WindowStart: s.windowStart,
		Sample:      make([][]pattern.Symbol, len(s.sample)),
		SymbolSums:  s.acc.Sums(),
		SampleSums:  make(map[string]float64, len(s.sampleSums)),
		ExactSums:   make(map[string]float64, len(s.exactSums)),
	}
	for i, seq := range s.sample {
		st.Sample[i] = append([]pattern.Symbol(nil), seq...)
	}
	for k, v := range s.sampleSums {
		st.SampleSums[k] = v
	}
	for k, v := range s.exactSums {
		st.ExactSums[k] = v
	}
	return st
}

// LastMine exposes the current sample-mining state for checkpointing (nil
// before the first mine).
func (s *Stream) LastMine() *miner.Result { return s.lastMine }

// Cursor returns the absolute id of the next unconsumed sequence.
func (s *Stream) Cursor() int { return s.cursor }

// WindowStart returns the absolute id the consumed window starts at.
func (s *Stream) WindowStart() int { return s.windowStart }

// Restore rebuilds a stream from a captured State and the mine that was live
// when it was captured (nil forces a re-mine on the next Advance). The state
// must have been captured under the same Config and log.
func Restore(db *seqdb.AppendDB, cfg Config, st *State, mine *miner.Result) (*Stream, error) {
	s, err := New(db, cfg)
	if err != nil {
		return nil, err
	}
	if st.Cursor < st.WindowStart || len(st.SymbolSums) != cfg.C.Size() {
		return nil, fmt.Errorf("stream: inconsistent state (cursor %d, window start %d, %d symbol sums)",
			st.Cursor, st.WindowStart, len(st.SymbolSums))
	}
	if want := min(cfg.SampleSize, st.Cursor-st.WindowStart); len(st.Sample) != want {
		return nil, fmt.Errorf("stream: state carries %d sample sequences, want %d", len(st.Sample), want)
	}
	s.cursor, s.windowStart = st.Cursor, st.WindowStart
	if err := s.acc.SetSums(st.SymbolSums); err != nil {
		return nil, err
	}
	s.sample = make([][]pattern.Symbol, len(st.Sample))
	for i, seq := range st.Sample {
		s.sample[i] = append([]pattern.Symbol(nil), seq...)
	}
	s.symbolMatch = s.acc.Matches(s.cursor - s.windowStart)
	for k, v := range st.ExactSums {
		s.exactSums[k] = v
		p, err := pattern.ParseKey(k)
		if err != nil {
			return nil, fmt.Errorf("stream: exact-sum key %q: %w", k, err)
		}
		s.probed = append(s.probed, p)
	}
	sortPatterns(s.probed)
	if mine != nil {
		s.lastMine = mine
		if err := s.adoptSums(st.SampleSums); err != nil {
			return nil, err
		}
		s.dirty = false
	}
	return s, nil
}

// adoptSums installs restored sample sums for the restored mine's candidates
// and recomputes the raw-label baseline from them.
func (s *Stream) adoptSums(sums map[string]float64) error {
	s.evaluated = s.evaluated[:0]
	s.sampleSums = make(map[string]float64, len(s.lastMine.Values))
	for key := range s.lastMine.Values {
		p, err := pattern.ParseKey(key)
		if err != nil {
			return fmt.Errorf("stream: candidate key %q: %w", key, err)
		}
		v, ok := sums[key]
		if !ok {
			return fmt.Errorf("stream: restored state misses sample sum for %q", key)
		}
		s.evaluated = append(s.evaluated, p)
		s.sampleSums[key] = v
	}
	sortPatterns(s.evaluated)
	raw, err := s.rawLabels()
	if err != nil {
		return err
	}
	s.prevRaw = raw
	return nil
}

// Advance consumes every sequence appended since the last call (applying the
// configured sliding window first), updates the maintained phase state, and
// returns the finalized frequent set over the consumed window. An Advance
// with nothing new and no border shift costs no window scan at all.
func (s *Stream) Advance(ctx context.Context) (*Result, error) {
	res := &Result{}
	if s.cfg.Window > 0 {
		if total := s.db.Total(); total-s.db.Start() > s.cfg.Window {
			if err := s.db.ExpireBefore(total - s.cfg.Window); err != nil {
				return nil, err
			}
		}
	}
	if err := s.ingest(ctx, res); err != nil {
		return nil, err
	}
	n := s.cursor - s.windowStart
	res.Total = s.cursor
	s.symbolMatch = s.acc.Matches(n)
	res.SymbolMatch = s.symbolMatch
	res.SampleSize = len(s.sample)
	if n == 0 {
		// An empty window mines nothing; the frequent set is trivially empty.
		s.lastMine, s.evaluated, s.prevRaw = nil, nil, nil
		s.sampleSums = nil
		s.dirty = true
		res.Frequent = pattern.NewSet()
		res.Border = pattern.NewSet()
		s.cfg.Metrics.StreamBatch(res.Appended, res.Expired, false, false)
		return res, nil
	}

	// Phase 2: skip the re-mine when the maintained labels prove the border
	// did not move; otherwise re-mine the in-memory sample.
	need := s.dirty || s.lastMine == nil || s.lastMine.Truncated
	if !need {
		raw, err := s.rawLabels()
		if err != nil {
			return nil, err
		}
		if !maps.Equal(raw, s.prevRaw) {
			res.BorderShifted = true
			need = true
		}
	}
	if need {
		if err := s.remine(ctx); err != nil {
			return nil, err
		}
		res.Remined = true
	} else {
		s.refreshMine()
	}
	res.Phase2 = s.lastMine

	// Phase 3: finalize the border, serving cached exact sums first.
	if s.lastMine.Ambiguous.Len() == 0 {
		res.Frequent = s.lastMine.Frequent.Clone()
		res.Border = pattern.Border(res.Frequent)
	} else {
		scans0 := 0
		probeCfg := border.Config{
			MinMatch:  s.cfg.MinMatch,
			MemBudget: s.cfg.MemBudget,
			Probe:     s.hybridProbe(ctx, res, &scans0),
			Ctx:       ctx,
			Metrics:   s.cfg.Metrics,
		}
		p3, err := border.FinalizeState(probeCfg, border.NewState(s.lastMine.Frequent, s.lastMine.Ambiguous), s.pickCachedFirst)
		if err != nil {
			return nil, err
		}
		res.Phase3 = p3
		res.Frequent = p3.Frequent
		res.Border = p3.Border
		res.Scans = scans0
	}
	s.cfg.Metrics.StreamBatch(res.Appended, res.Expired, res.BorderShifted, res.Remined)
	s.cfg.Metrics.StreamReprobesAvoided(res.ReprobesAvoided)
	return res, nil
}

// ingest consumes appended sequences — or, when the window start moved,
// rebuilds the whole Phase 1 state from the live window — extending the
// maintained sums along the way.
func (s *Stream) ingest(ctx context.Context, res *Result) error {
	s.grew = 0
	if start := s.db.Start(); start != s.windowStart {
		// The window moved (sliding-window expiry, here or externally):
		// rebuild from the live window. Stateless draws keyed by the new
		// window-relative indices make this identical to a fresh stream over
		// a log holding only the live window.
		res.Expired = start - s.windowStart
		oldCursor := s.cursor
		s.windowStart = start
		s.acc = match.NewSymbolAccumulator(s.cfg.C)
		s.sample = s.sample[:0]
		s.exactSums = make(map[string]float64)
		s.probed = s.probed[:0]
		s.dirty = true
		delivered := 0
		err := s.db.ScanContext(ctx, func(id int, seq []pattern.Symbol) error {
			if err := s.observe(s.windowStart+id, seq); err != nil {
				return err
			}
			s.offer(id, seq)
			delivered++
			return nil
		})
		if err != nil {
			return err
		}
		s.cursor = s.windowStart + delivered
		if s.cursor > oldCursor {
			res.Appended = s.cursor - oldCursor
		}
		return nil
	}

	var appended [][]pattern.Symbol
	cursor, err := s.db.ScanSince(ctx, s.cursor, func(abs int, seq []pattern.Symbol) error {
		if err := s.observe(abs, seq); err != nil {
			return err
		}
		s.offer(abs-s.windowStart, seq)
		appended = append(appended, append([]pattern.Symbol(nil), seq...))
		return nil
	})
	if err != nil {
		return err
	}
	s.cursor = cursor
	res.Appended = len(appended)
	if len(appended) == 0 {
		return nil
	}

	// Extend the maintained sums, in arrival order, so they stay
	// bit-identical to a from-scratch in-order scan.
	if s.lastMine != nil && !s.dirty && s.grew > 0 {
		if err := s.extendSums(s.sampleSums, s.evaluated, s.sample[len(s.sample)-s.grew:]); err != nil {
			return err
		}
	}
	if len(s.probed) > 0 {
		if err := s.extendSums(s.exactSums, s.probed, appended); err != nil {
			return err
		}
	}
	return nil
}

// observe adds sequence abs to the Phase 1 sums. A symbol outside the
// alphabet fails the batch before the sequence reaches the sample.
func (s *Stream) observe(abs int, seq []pattern.Symbol) error {
	s.acc.Observe(seq)
	if err := s.acc.Err(); err != nil {
		return fmt.Errorf("stream: sequence %d: %w", abs, err)
	}
	return nil
}

// offer presents the sequence with window-relative index rel to the
// reservoir (Algorithm R with stateless per-index draws).
func (s *Stream) offer(rel int, seq []pattern.Symbol) {
	if rel < s.cfg.SampleSize {
		s.sample = append(s.sample, append([]pattern.Symbol(nil), seq...))
		s.grew++
		return
	}
	if j := drawIndex(s.cfg.Seed, rel); j < s.cfg.SampleSize {
		s.sample[j] = append([]pattern.Symbol(nil), seq...)
		s.dirty = true // a member was replaced: maintained sample sums are stale
	}
}

// drawIndex is the stateless Algorithm R draw for the rel-th window sequence:
// uniform on [0, rel], a pure function of (seed, rel), so any replay of the
// window reproduces the same reservoir.
func drawIndex(seed int64, rel int) int {
	rng := rand.New(rand.NewSource(seed ^ int64(uint64(rel+1)*0x9E3779B97F4A7C15)))
	return rng.Intn(rel + 1)
}

// extendSums extends each pattern's running sum by its matches against seqs
// with the in-order fold: the totals are loaded first and every sequence's
// match is added in seqs' order, continuing the exact additions a fresh
// in-order scan performs (adding a separately summed chunk would
// reassociate the floats). It re-anchors the sample sums after a re-mine and
// extends the sample and exact sums every batch.
func (s *Stream) extendSums(sums map[string]float64, ps []pattern.Pattern, seqs [][]pattern.Symbol) error {
	batch, err := match.CompileProbeBatch(s.cfg.C, ps)
	if err != nil {
		return err
	}
	buf := make([]float64, len(ps))
	for i, p := range ps {
		buf[i] = sums[p.Key()]
	}
	batch.NewFold(buf, s.cfg.Workers).Add(seqs)
	for i, p := range ps {
		sums[p.Key()] = buf[i]
	}
	return nil
}

// rawLabels computes the unclamped classification of every maintained
// candidate from the current sums: exact for 1-patterns (Phase 1's symbol
// matches carry no sampling uncertainty), Chernoff with the restricted
// spread otherwise. If none of these change, a fresh mine would regenerate
// the same candidate space with the same labels, so the re-mine is skipped.
func (s *Stream) rawLabels() (map[string]chernoff.Label, error) {
	cls, err := chernoff.NewClassifier(s.cfg.MinMatch, s.cfg.Delta, len(s.sample))
	if err != nil {
		return nil, err
	}
	n := float64(len(s.sample))
	out := make(map[string]chernoff.Label, len(s.evaluated))
	for _, p := range s.evaluated {
		key := p.Key()
		if p.K() == 1 {
			if s.symbolMatch[p[0]] >= s.cfg.MinMatch {
				out[key] = chernoff.Frequent
			} else {
				out[key] = chernoff.Infrequent
			}
			continue
		}
		out[key] = cls.Classify(s.sampleSums[key]/n, chernoff.RestrictedSpread(p, s.symbolMatch))
	}
	return out, nil
}

// remine reruns the sample classification (Phase 2) over the maintained
// sample — the scoped fallback when the incremental path cannot prove the
// border stayed put. It then rebuilds the maintained sums and the raw-label
// baseline from the fresh candidate space.
func (s *Stream) remine(ctx context.Context) error {
	opts := miner.Options{
		MaxLen:                s.cfg.MaxLen,
		MaxGap:                s.cfg.MaxGap,
		MaxCandidatesPerLevel: s.cfg.MaxCandidatesPerLevel,
		Metrics:               s.cfg.Metrics,
	}
	valuer := miner.MatchSampleValuer(s.cfg.C, s.sample)
	if s.cfg.Kernel == KernelIncremental {
		var inc *match.Incremental
		valuer, inc = miner.IncrementalSampleValuer(s.cfg.C, s.sample, miner.IncrementalConfig{
			Workers: s.cfg.Workers,
			Budget:  s.cfg.CacheBudget,
			Metrics: s.cfg.Metrics,
		})
		defer inc.Release()
	}
	r, err := miner.SampleChernoffContext(ctx, s.cfg.C.Size(), valuer,
		s.symbolMatch, s.cfg.MinMatch, s.cfg.Delta, len(s.sample), opts)
	if err != nil {
		return err
	}
	s.lastMine = r
	s.evaluated = s.evaluated[:0]
	for key := range r.Values {
		p, err := pattern.ParseKey(key)
		if err != nil {
			return fmt.Errorf("stream: candidate key %q: %w", key, err)
		}
		s.evaluated = append(s.evaluated, p)
	}
	sortPatterns(s.evaluated)
	// Rebuild the sample sums with one in-memory pass, so the maintained sums
	// (and every label derived from them later) are anchored to a straight
	// in-order accumulation regardless of the re-mine kernel.
	s.sampleSums = make(map[string]float64, len(s.evaluated))
	if err := s.extendSums(s.sampleSums, s.evaluated, s.sample); err != nil {
		return err
	}
	raw, err := s.rawLabels()
	if err != nil {
		return err
	}
	s.prevRaw = raw
	s.dirty = false
	return nil
}

// refreshMine updates the skipped batch's values and spreads in place from
// the maintained sums — the labels, sets and borders are unchanged by
// construction (that is what the skip condition proved).
func (s *Stream) refreshMine() {
	n := float64(len(s.sample))
	for _, p := range s.evaluated {
		key := p.Key()
		s.lastMine.Values[key] = s.sampleSums[key] / n
		s.lastMine.Spreads[key] = chernoff.RestrictedSpread(p, s.symbolMatch)
	}
}

// hybridProbe is the Phase 3 valuer: patterns with cached exact sums are
// resolved without touching the database; the rest are counted in one pass
// over the consumed window, through the in-order fold on the stream's
// workers, and their sums cached for every later batch.
func (s *Stream) hybridProbe(ctx context.Context, res *Result, scans *int) miner.Valuer {
	return func(ps []pattern.Pattern) ([]float64, error) {
		n := float64(s.cursor - s.windowStart)
		out := make([]float64, len(ps))
		var miss []pattern.Pattern
		var missIdx []int
		for i, p := range ps {
			if sum, ok := s.exactSums[p.Key()]; ok {
				out[i] = sum / n
				res.ReprobesAvoided++
				continue
			}
			miss = append(miss, p)
			missIdx = append(missIdx, i)
		}
		if len(miss) == 0 {
			return out, nil
		}
		batch, err := match.CompileProbeBatch(s.cfg.C, miss)
		if err != nil {
			return nil, err
		}
		sums := make([]float64, len(miss))
		fold := batch.NewFold(sums, s.cfg.Workers)
		// Scan exactly the consumed prefix [windowStart, cursor): sequences
		// appended after ingest belong to the next batch. Push copies each
		// delivered sequence, because the log reuses its buffer.
		err = s.db.ScanRangeContext(ctx, 0, s.cursor-s.windowStart, func(_ int, seq []pattern.Symbol) error {
			return fold.Push(ctx, seq)
		})
		if err == nil {
			err = fold.Flush(ctx)
		}
		if err != nil {
			return nil, err
		}
		*scans++
		for j, i := range missIdx {
			key := miss[j].Key()
			s.exactSums[key] = sums[j]
			s.probed = append(s.probed, miss[j])
			out[i] = sums[j] / n
		}
		sortPatterns(s.probed)
		return out, nil
	}
}

// pickCachedFirst drains pending patterns whose exact sums are cached before
// falling back to the halfway-layer schedule. Probe order never changes the
// final frequent set (probes are exact and propagation is anti-monotone), so
// this is purely a scan-avoidance layout.
func (s *Stream) pickCachedFirst(pending *pattern.Set, budget int) []pattern.Pattern {
	var cached []pattern.Pattern
	for _, p := range pending.Patterns() {
		if _, ok := s.exactSums[p.Key()]; ok {
			cached = append(cached, p)
			if len(cached) >= budget {
				break
			}
		}
	}
	if len(cached) > 0 {
		return cached
	}
	return border.PickHalfway(pending, budget)
}

func sortPatterns(ps []pattern.Pattern) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].Key() < ps[b].Key() })
}
