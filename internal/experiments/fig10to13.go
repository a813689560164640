package experiments

import (
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/chernoff"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// newUnitSpreadClassifier builds a Classify function that ignores the
// per-pattern restricted spread (the R=1 baseline of Figure 11(b)).
func newUnitSpreadClassifier(minMatch, delta float64, n int) (func(pattern.Pattern, float64, float64) chernoff.Label, error) {
	cls, err := chernoff.NewClassifier(minMatch, delta, n)
	if err != nil {
		return nil, err
	}
	return func(_ pattern.Pattern, v, _ float64) chernoff.Label {
		return cls.Classify(v, 1)
	}, nil
}

// ---- Figure 10: ambiguous patterns vs sample size ----

// Fig10Config parameterizes the sample-size experiment (§5.3).
type Fig10Config struct {
	Scale    Scale
	Seed     int64
	Alphas   []float64 // nil = {0.1, 0.3, 0.5}
	Samples  []int     // nil = {30, 60, 125, 250, 500}
	MinMatch float64   // 0 = 0.01
	Delta    float64   // 0 = 1e-4
}

func (c *Fig10Config) setDefaults() {
	if c.Alphas == nil {
		c.Alphas = []float64{0.1, 0.3, 0.5}
	}
	if c.Samples == nil {
		c.Samples = pick(c.Scale,
			[]int{30, 60, 125, 250, 500},
			[]int{50, 100, 250, 500, 1000, 2000},
			[]int{100, 250, 500, 1000, 2500, 5000})
	}
	if c.MinMatch == 0 {
		c.MinMatch = 0.08
	}
	if c.Delta == 0 {
		c.Delta = 1e-4
	}
}

// Fig10Row reports ambiguous counts for one sample size across the alphas.
type Fig10Row struct {
	SampleSize int
	Ambiguous  []int // aligned with Config.Alphas
}

// Fig10Result bundles the sweep.
type Fig10Result struct {
	Config Fig10Config
	Rows   []Fig10Row
}

// Fig10 counts ambiguous patterns as a function of sample size.
func Fig10(cfg Fig10Config) (*Fig10Result, error) {
	cfg.setDefaults()
	res := &Fig10Result{Config: cfg}
	worlds := make([]*samplingWorld, len(cfg.Alphas))
	for i, alpha := range cfg.Alphas {
		w, err := newSamplingWorld(cfg.Scale, alpha, cfg.Seed+10)
		if err != nil {
			return nil, err
		}
		worlds[i] = w
	}
	for _, n := range cfg.Samples {
		row := Fig10Row{SampleSize: n}
		for i := range cfg.Alphas {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000*i) + int64(n)))
			p2, err := worlds[i].phase2(n, cfg.MinMatch, cfg.Delta, true, rng)
			if err != nil {
				return nil, err
			}
			row.Ambiguous = append(row.Ambiguous, p2.Ambiguous.Len())
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders ambiguous counts per sample size.
func (r *Fig10Result) Table() *stats.Table {
	header := []string{"samples"}
	for _, a := range r.Config.Alphas {
		header = append(header, "ambiguous(alpha="+trimFloat(a)+")")
	}
	t := stats.NewTable(header...)
	for _, row := range r.Rows {
		cells := []any{row.SampleSize}
		for _, c := range row.Ambiguous {
			cells = append(cells, c)
		}
		t.AddRow(cells...)
	}
	return t
}

func trimFloat(a float64) string {
	return strconv.FormatFloat(a, 'g', 3, 64)
}

// ---- Figure 11: effects of the restricted spread R ----

// Fig11Config parameterizes the spread experiment (§5.4).
type Fig11Config struct {
	Scale      Scale
	Seed       int64
	Alphas     []float64 // nil = {0.1, 0.3, 0.5}
	SampleSize int       // 0 = 250
	MinMatch   float64   // 0 = 0.01
	Delta      float64   // 0 = 1e-4
}

func (c *Fig11Config) setDefaults() {
	if c.Alphas == nil {
		c.Alphas = []float64{0.1, 0.3, 0.5}
	}
	if c.SampleSize == 0 {
		c.SampleSize = pick(c.Scale, 250, 500, 1000)
	}
	if c.MinMatch == 0 {
		c.MinMatch = 0.08
	}
	if c.Delta == 0 {
		c.Delta = 1e-4
	}
}

// Fig11SpreadRow is the average restricted spread per level (Figure 11(a)).
type Fig11SpreadRow struct {
	K       int
	Spreads []float64 // aligned with Config.Alphas
}

// Fig11RatioRow is the ambiguous-count ratio restricted/unit (Figure 11(b)).
type Fig11RatioRow struct {
	Alpha               float64
	AmbiguousRestricted int
	AmbiguousUnitSpread int
	Ratio               float64
}

// Fig11Result bundles both series.
type Fig11Result struct {
	Config  Fig11Config
	Spreads []Fig11SpreadRow
	Ratios  []Fig11RatioRow
}

// Fig11 measures the restricted spread's magnitude and pruning power.
func Fig11(cfg Fig11Config) (*Fig11Result, error) {
	cfg.setDefaults()
	res := &Fig11Result{Config: cfg}
	perLevel := make(map[int][]float64) // level -> per-alpha mean spread
	for ai, alpha := range cfg.Alphas {
		w, err := newSamplingWorld(cfg.Scale, alpha, cfg.Seed+11)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ai)))
		restricted, err := w.phase2(cfg.SampleSize, cfg.MinMatch, cfg.Delta, true, rng)
		if err != nil {
			return nil, err
		}
		rng = rand.New(rand.NewSource(cfg.Seed + int64(ai)))
		unit, err := w.phase2(cfg.SampleSize, cfg.MinMatch, cfg.Delta, false, rng)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if unit.Ambiguous.Len() > 0 {
			ratio = float64(restricted.Ambiguous.Len()) / float64(unit.Ambiguous.Len())
		}
		res.Ratios = append(res.Ratios, Fig11RatioRow{
			Alpha:               alpha,
			AmbiguousRestricted: restricted.Ambiguous.Len(),
			AmbiguousUnitSpread: unit.Ambiguous.Len(),
			Ratio:               ratio,
		})
		// Average spread per level over every evaluated candidate.
		sums := make(map[int]float64)
		counts := make(map[int]int)
		for key, spread := range restricted.Spreads {
			p, err := pattern.ParseKey(key)
			if err != nil {
				return nil, err
			}
			sums[p.K()] += spread
			counts[p.K()]++
		}
		for k := 1; k <= w.maxLen; k++ {
			for len(perLevel[k]) < ai {
				perLevel[k] = append(perLevel[k], 0)
			}
			mean := 0.0
			if counts[k] > 0 {
				mean = sums[k] / float64(counts[k])
			}
			perLevel[k] = append(perLevel[k], mean)
		}
	}
	for k := 1; ; k++ {
		spreads, ok := perLevel[k]
		if !ok {
			break
		}
		res.Spreads = append(res.Spreads, Fig11SpreadRow{K: k, Spreads: spreads})
	}
	return res, nil
}

// Table renders the Figure 11(a) average spreads.
func (r *Fig11Result) Table() *stats.Table {
	header := []string{"k"}
	for _, a := range r.Config.Alphas {
		header = append(header, "avg_R(alpha="+trimFloat(a)+")")
	}
	t := stats.NewTable(header...)
	for _, row := range r.Spreads {
		cells := []any{row.K}
		for _, s := range row.Spreads {
			cells = append(cells, s)
		}
		t.AddRow(cells...)
	}
	return t
}

// RatioTable renders the Figure 11(b) pruning-power comparison.
func (r *Fig11Result) RatioTable() *stats.Table {
	t := stats.NewTable("alpha", "ambiguous_restrictedR", "ambiguous_R1", "ratio")
	for _, row := range r.Ratios {
		t.AddRow(row.Alpha, row.AmbiguousRestricted, row.AmbiguousUnitSpread, row.Ratio)
	}
	return t
}

// ---- Figure 12: effects of the confidence 1-δ ----

// Fig12Config parameterizes the confidence experiment (§5.5).
type Fig12Config struct {
	Scale      Scale
	Seed       int64
	Alpha      float64   // 0 = 0.3
	Deltas     []float64 // nil = {0.1, 0.01, 0.001, 0.0001}
	SampleSize int       // 0 = 250
	MinMatch   float64   // 0 = 0.01
}

func (c *Fig12Config) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.Deltas == nil {
		c.Deltas = []float64{0.1, 0.01, 0.001, 0.0001}
	}
	if c.SampleSize == 0 {
		c.SampleSize = pick(c.Scale, 250, 500, 1000)
	}
	if c.MinMatch == 0 {
		c.MinMatch = 0.08
	}
}

// Fig12Row reports one confidence level.
type Fig12Row struct {
	Confidence float64
	Ambiguous  int
	ErrorRate  float64
}

// Fig12Result bundles the sweep.
type Fig12Result struct {
	Config Fig12Config
	Rows   []Fig12Row
}

// Fig12 measures the ambiguous count and the final error rate as the
// confidence varies. The error rate compares the full three-phase result
// against the exhaustive truth, so it reflects exactly the patterns
// misclassified by the Chernoff bound (Phase 3 resolves ambiguity exactly).
func Fig12(cfg Fig12Config) (*Fig12Result, error) {
	cfg.setDefaults()
	w, err := newSamplingWorld(cfg.Scale, cfg.Alpha, cfg.Seed+12)
	if err != nil {
		return nil, err
	}
	truth, _, err := match.MineBySweep(w.test, w.comp, cfg.MinMatch, w.maxLen, w.maxGap)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Config: cfg}
	for _, delta := range cfg.Deltas {
		rng := rand.New(rand.NewSource(cfg.Seed + 120))
		p2, err := w.phase2(cfg.SampleSize, cfg.MinMatch, delta, true, rng)
		if err != nil {
			return nil, err
		}
		full, err := core.Mine(w.test, w.comp, core.Config{
			MinMatch:   cfg.MinMatch,
			Delta:      delta,
			SampleSize: cfg.SampleSize,
			MaxLen:     w.maxLen,
			MaxGap:     w.maxGap,
			MemBudget:  100000,
			Rng:        rand.New(rand.NewSource(cfg.Seed + 120)),
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig12Row{
			Confidence: 1 - delta,
			Ambiguous:  p2.Ambiguous.Len(),
			ErrorRate:  eval.ErrorRate(full.Frequent, truth),
		})
	}
	return res, nil
}

// Table renders the confidence sweep.
func (r *Fig12Result) Table() *stats.Table {
	t := stats.NewTable("confidence", "ambiguous", "error_rate")
	for _, row := range r.Rows {
		t.AddRow(row.Confidence, row.Ambiguous, row.ErrorRate)
	}
	return t
}

// ---- Figure 13: distribution of missed patterns ----

// Fig13Config parameterizes the missed-pattern experiment (§5.5).
type Fig13Config struct {
	Scale      Scale
	Seed       int64
	Alpha      float64 // 0 = 0.3
	Delta      float64 // 0 = 0.85 (deliberately weak, to surface misses)
	SampleSize int     // 0 = 200 (small enough that ε is material)
	MinMatch   float64 // 0 = 0.01
	Rounds     int     // independent repetitions; 0 = 12
}

func (c *Fig13Config) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.Delta == 0 {
		c.Delta = 0.85
	}
	if c.SampleSize == 0 {
		c.SampleSize = 400
	}
	if c.MinMatch == 0 {
		c.MinMatch = 0.08
	}
	if c.Rounds == 0 {
		c.Rounds = pick(c.Scale, 12, 30, 60)
	}
}

// Fig13Result is the histogram of missed patterns' relative distance above
// the threshold.
type Fig13Result struct {
	Config    Fig13Config
	Histogram *stats.Histogram
	Missed    int
	Frequent  int // truth size, for context
}

// Fig13 provokes misclassification with a small sample and weak confidence,
// then histograms how far above the threshold the missed patterns really
// are. The paper's theoretical point: the probability of missing a pattern
// decays exponentially with its distance, so misses concentrate near the
// threshold. Misses can only happen to patterns whose true match is close
// to min_match, so the threshold is calibrated against the observed value
// distribution: it is placed just below a quartile of the candidate values,
// guaranteeing a population of near-threshold patterns (at the paper's
// scale the heavy-tailed value distribution provides this for free).
func Fig13(cfg Fig13Config) (*Fig13Result, error) {
	cfg.setDefaults()
	w, err := newSamplingWorld(cfg.Scale, cfg.Alpha, cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	// Calibrate min_match from the value distribution above a low probe
	// threshold.
	_, probeVals, err := match.MineBySweep(w.test, w.comp, cfg.MinMatch/4, w.maxLen, w.maxGap)
	if err != nil {
		return nil, err
	}
	values := make([]float64, 0, len(probeVals))
	for _, v := range probeVals {
		values = append(values, v)
	}
	if len(values) > 8 {
		sort.Float64s(values)
		cfg.MinMatch = values[len(values)*3/5] * 0.99
	}
	truthSet, truthVals, err := match.MineBySweep(w.test, w.comp, cfg.MinMatch, w.maxLen, w.maxGap)
	if err != nil {
		return nil, err
	}
	hist, err := stats.NewHistogram(0, 0.05, 0.10, 0.15)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Config: cfg, Histogram: hist, Frequent: truthSet.Len()}
	for round := 0; round < cfg.Rounds; round++ {
		full, err := core.Mine(w.test, w.comp, core.Config{
			MinMatch:   cfg.MinMatch,
			Delta:      cfg.Delta,
			SampleSize: cfg.SampleSize,
			MaxLen:     w.maxLen,
			MaxGap:     w.maxGap,
			MemBudget:  100000,
			Rng:        rand.New(rand.NewSource(cfg.Seed + int64(round))),
		})
		if err != nil {
			return nil, err
		}
		missed := eval.Missed(full.Frequent, truthSet)
		res.Missed += missed.Len()
		for _, d := range eval.MissDistances(missed, truthVals, cfg.MinMatch) {
			hist.Add(d)
		}
	}
	return res, nil
}

// Table renders the histogram as fractions (the paper's Figure 13 bars).
func (r *Fig13Result) Table() *stats.Table {
	t := stats.NewTable("distance_over_threshold", "missed_fraction", "missed_count")
	fr := r.Histogram.Fractions()
	counts := r.Histogram.Counts()
	for i := 0; i < r.Histogram.Buckets(); i++ {
		t.AddRow(r.Histogram.BucketLabel(i), fr[i], counts[i])
	}
	return t
}
