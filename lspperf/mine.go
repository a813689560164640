package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/border"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// mineSpec is a one-shot mining workload: a generated noisy database, how
// it is held, and the miner's configuration.
type mineSpec struct {
	data   datagen.ProteinConfig
	alpha  float64 // uniform noise rate applied to the generated database
	onDisk bool    // mined through a DiskDB (LSQ2 file) instead of a MemDB
	group  int     // set-ups timed together in one set-up repetition
	cfg    core.Config
}

// diskCollapse is the paper's disk-resident premise: 10^5 sequences on an
// LSQ2 file, mined with the lspmine defaults except MaxLen 6 and a tight
// Phase 3 budget of 12 counters, so border collapsing needs five probe
// scans and Phase 3 dominates.
func diskCollapse(b *bench) error {
	return runMine(b, mineSpec{
		data: datagen.ProteinConfig{
			N: 100000, M: 20, MinLen: 24, MaxLen: 40,
			NumMotifs: 3, MotifLen: 5, PlantProb: 0.40,
		},
		alpha:  0.05,
		onDisk: true,
		group:  1,
		cfg: core.Config{
			MinMatch: 0.20, Delta: 1e-4, SampleSize: 1000, MaxLen: 6, MaxGap: 1,
			MaxCandidatesPerLevel: 50000, MemBudget: 12,
		},
	})
}

// deepSample is the long-pattern regime (lspbench's long-low cell): 600
// long sequences held in memory, mined eight deep at a low threshold, so
// Phase 2's level-wise search and its incremental kernel do most of the
// work.
func deepSample(b *bench) error {
	return runMine(b, mineSpec{
		data: datagen.ProteinConfig{
			N: 600, M: 20, MinLen: 150, MaxLen: 220,
			NumMotifs: 2, MotifLen: 10, PlantProb: 0.55,
		},
		alpha: 0.05,
		group: 40, // one import takes about 7 ms
		cfg: core.Config{
			MinMatch: 0.2, Delta: 1e-2, SampleSize: 300, MaxLen: 8, MaxGap: 1,
			MaxCandidatesPerLevel: 50000, MemBudget: 1000,
		},
	})
}

// generateText draws the workload's database from the seed and renders it
// in the text format seqdb.ReadText imports.
func generateText(seed int64, data datagen.ProteinConfig, alpha float64) ([]byte, *pattern.Alphabet, error) {
	rng := rand.New(rand.NewSource(seed))
	std, _, err := datagen.Protein(data, rng)
	if err != nil {
		return nil, nil, err
	}
	noisy, err := datagen.ApplyUniformNoise(std, data.M, alpha, rng)
	if err != nil {
		return nil, nil, err
	}
	alph := pattern.GenericAlphabet(data.M)
	var buf bytes.Buffer
	if err := seqdb.WriteText(&buf, noisy, alph); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), alph, nil
}

// importDB is the program's set-up for a mining workload: the text import,
// and for an on-disk workload the LSQ2 write and open.
func importDB(b *bench, spec mineSpec, text []byte, alph *pattern.Alphabet, path string) (seqdb.Scanner, error) {
	imp := b.tr.Start("seqdb.import", 0)
	defer b.tr.End(imp)
	sp := b.tr.Start("seqdb.read_text", imp)
	mem, err := seqdb.ReadText(bytes.NewReader(text), alph)
	b.tr.End(sp)
	if err != nil || !spec.onDisk {
		return mem, err
	}
	sp = b.tr.Start("seqdb.write_file", imp)
	err = seqdb.WriteFile(path, mem)
	b.tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.Start("seqdb.open_file", imp)
	defer b.tr.End(sp)
	return seqdb.OpenFile(path)
}

// setups times the set-up: one discarded warm-up, then repetitions on a
// clean heap until at least minSetups have run and setupBudget has passed.
// A repetition builds the database group times and counts the mean, so
// that a set-up of a few milliseconds is timed over a stretch long enough
// to repeat. It returns the median set-up seconds and the last database.
func setups(b *bench, group int, build func() (any, error)) (float64, any, error) {
	const minSetups, setupBudget = 5, 2 * time.Second
	var last any
	var times []float64
	start := time.Now()
	for i := 0; i <= minSetups || time.Since(start) < setupBudget; i++ {
		r, err := timeRep(func() (any, error) {
			for j := 0; j < group; j++ {
				var err error
				if last, err = build(); err != nil {
					return nil, err
				}
			}
			return last, nil
		})
		if err != nil {
			return 0, nil, err
		}
		if i > 0 {
			times = append(times, r.wall/float64(group))
		}
	}
	return median(times), last, nil
}

// digest fingerprints a pattern set by its sorted keys.
func digest(s *pattern.Set) string {
	keys := make([]string, 0, s.Len())
	s.ForEach(func(p pattern.Pattern) bool {
		keys = append(keys, p.Key())
		return true
	})
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// outcome is what one mine produced, as the output checks compare it:
// digests of the frequent set, the border and the bits of every Phase 3
// exact value, and the scan count.
type outcome struct {
	frequent, border, exact string
	nFrequent               int
	scans                   int
}

func outcomeOf(frequent, bord *pattern.Set, scans int, p3 *border.Result) outcome {
	h := sha256.New()
	if p3 != nil {
		keys := make([]string, 0, len(p3.Exact))
		for k := range p3.Exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(p3.Exact[k]))
		}
	}
	return outcome{
		frequent: digest(frequent), border: digest(bord), exact: hex.EncodeToString(h.Sum(nil)[:8]),
		nFrequent: frequent.Len(), scans: scans,
	}
}

func runMine(b *bench, spec mineSpec) error {
	spec.cfg.Workers = runtime.GOMAXPROCS(0)
	text, alph, err := generateText(b.seed, spec.data, spec.alpha)
	if err != nil {
		return err
	}
	c, err := compat.UniformNoise(spec.data.M, spec.alpha)
	if err != nil {
		return err
	}
	path := filepath.Join(b.dir, "db.lsq")
	setupS, last, err := setups(b, spec.group, func() (any, error) { return importDB(b, spec, text, alph, path) })
	if err != nil {
		return err
	}
	db := last.(seqdb.Scanner)
	text = nil // keep the benchmark's input out of the heap the mines are measured in
	b.set("setup_s", setupS)

	mine := func() (*core.Result, error) {
		cfg := spec.cfg
		cfg.Rng = rand.New(rand.NewSource(b.seed))
		res, err := core.Mine(db, c, cfg)
		return res, b.op(err)
	}
	// The warm-up mine is discarded from the timings; it fixes the
	// reference output every later mine must reproduce.
	ref, err := mine()
	if err != nil {
		return err
	}
	want := outcomeOf(ref.Frequent, ref.Border, ref.Scans, ref.Phase3)
	fmt.Fprintf(os.Stderr, "lspperf: %d sequences, %d candidates, %d frequent, border %d, ambiguous %d, %d scans\n",
		db.Len(), sumInts(ref.Phase2.CandidatesPerLevel), want.nFrequent, ref.Border.Len(), ref.Phase2.Ambiguous.Len(), ref.Scans)
	if spec.onDisk {
		checkExact(b, db, c, ref)
	}
	ref = nil

	if b.tr != nil {
		return traceMine(b, spec, db, c, path, want)
	}

	var reps []rep
	start := time.Now()
	for len(reps) < 3 || time.Now().Before(b.deadline(start)) {
		var got outcome
		r, err := timeRep(func() (any, error) {
			res, err := mine()
			if err != nil {
				return nil, err
			}
			got = outcomeOf(res.Frequent, res.Border, res.Scans, res.Phase3)
			return res, nil
		})
		if err != nil {
			return err
		}
		b.check(got == want, "mine %d: %+v, want %+v", len(reps)+1, got, want)
		reps = append(reps, r)
	}
	reportReps(b, reps)
	return nil
}

// reportReps sets the end-to-end metrics from the timed repetitions.
func reportReps(b *bench, reps []rep) {
	var wall, cpu, heap []float64
	for _, r := range reps {
		wall = append(wall, r.wall)
		cpu = append(cpu, r.cpu)
		heap = append(heap, r.heapMB)
	}
	p90, _ := nearestRank(wall, 90)
	if p, v, err := tailPercentile(wall, 10); err == nil {
		fmt.Fprintf(os.Stderr, "lspperf: p%g with ten beyond it: %.4f s\n", p, v)
	}
	b.set("mine_s", median(wall))
	b.set("mine_p90_s", p90)
	b.set("mine_cpu_s", median(cpu))
	b.set("peak_heap_mb", median(heap))
	fmt.Fprintf(os.Stderr, "lspperf: %d timed repetitions, median %.4f s, p90 %.4f s:", len(reps), median(wall), p90)
	for _, w := range wall {
		fmt.Fprintf(os.Stderr, " %.4f", w)
	}
	fmt.Fprintln(os.Stderr)
}

// checkExact re-derives every Phase 3 exact value with one independent
// match.DB pass over the database and requires bit equality.
func checkExact(b *bench, db seqdb.Scanner, c compat.Source, res *core.Result) {
	if res.Phase3 == nil {
		b.check(res.Phase2.Ambiguous.Len() == 0, "no Phase 3 result despite ambiguous patterns")
		return
	}
	keys := make([]string, 0, len(res.Phase3.Exact))
	for k := range res.Phase3.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ps := make([]pattern.Pattern, len(keys))
	for i, k := range keys {
		p, err := pattern.ParseKey(k)
		if err != nil {
			b.check(false, "exact value key %q: %v", k, err)
			return
		}
		ps[i] = p
	}
	vals, err := match.DB(db, match.NewMatch(c), ps)
	if err != nil {
		b.check(false, "match.DB pass: %v", err)
		return
	}
	for i, k := range keys {
		got := res.Phase3.Exact[k]
		b.check(math.Float64bits(got) == math.Float64bits(vals[i]),
			"exact value of %s: Phase 3 %v, match.DB %v", k, got, vals[i])
	}
}

// decomposition is core.Mine split into the public calls core makes, with
// each layer's time and counts.
type decomposition struct {
	frequent *pattern.Set
	scans    int
	p2       *miner.Result
	p3       *border.Result
	allocMB  float64 // heap allocated during Phase 2
	passes   int     // full passes the database counted
	root     int     // the mine's span
	phase1   int     // span ids
	phase2   int
	finalize int
}

// decompose mines like core.Mine with the same configuration and sampling
// seed: Phase 1, Phase 2 with the incremental valuer, then
// border.FinalizeState with PickHalfway and the Workers-selected probe
// valuer, recording a span around each call.
func decompose(b *bench, cfg core.Config, db seqdb.Scanner, c compat.Source) (*decomposition, error) {
	ctx := context.Background()
	tr := b.tr
	d := &decomposition{}
	passes0 := db.Scans()
	d.root = tr.Start("core.mine", 0)
	defer tr.End(d.root)

	d.phase1 = tr.Start("core.phase1", d.root)
	symbolMatch, sample, err := core.Phase1Context(ctx, db, c, cfg.SampleSize, rand.New(rand.NewSource(b.seed)))
	tr.End(d.phase1)
	if err != nil {
		return nil, err
	}

	d.phase2 = tr.Start("miner.phase2", d.root)
	alloc0 := allocBytes()
	inner, inc := miner.IncrementalSampleValuer(c, sample, miner.IncrementalConfig{Workers: cfg.Workers, Budget: cfg.Phase2CacheBudget})
	valuer := func(ps []pattern.Pattern) ([]float64, error) {
		sp := tr.Start("match.incremental", d.phase2)
		defer tr.End(sp)
		return inner(ps)
	}
	d.p2, err = miner.SampleChernoffContext(ctx, c.Size(), valuer, symbolMatch, cfg.MinMatch, cfg.Delta, len(sample), miner.Options{
		MaxLen: cfg.MaxLen, MaxGap: cfg.MaxGap, MaxCandidatesPerLevel: cfg.MaxCandidatesPerLevel,
	})
	inc.Release()
	d.allocMB = float64(allocBytes()-alloc0) / (1 << 20)
	tr.End(d.phase2)
	if err != nil {
		return nil, err
	}

	d.scans = 1
	if d.p2.Ambiguous.Len() == 0 {
		d.frequent = d.p2.Frequent.Clone()
		d.passes = db.Scans() - passes0
		return d, nil
	}
	d.finalize = tr.Start("border.finalize", d.root)
	var probe miner.Valuer
	if cfg.Workers == 0 || cfg.Workers == 1 {
		probe = miner.MatchDBValuerContext(ctx, db, c)
	} else {
		probe = miner.ParallelMatchDBValuerContext(ctx, db, c, cfg.Workers)
	}
	d.p3, err = border.FinalizeState(border.Config{
		MinMatch:  cfg.MinMatch,
		MemBudget: cfg.MemBudget,
		Ctx:       ctx,
		Probe: func(ps []pattern.Pattern) ([]float64, error) {
			sp := tr.Start("miner.probe", d.finalize)
			defer tr.End(sp)
			return probe(ps)
		},
	}, border.NewState(d.p2.Frequent, d.p2.Ambiguous), border.PickHalfway)
	tr.End(d.finalize)
	if err != nil {
		return nil, err
	}
	d.frequent = d.p3.Frequent
	d.scans += d.p3.Scans
	d.passes = db.Scans() - passes0
	return d, nil
}

// layerTimes sums the decomposition's spans into per-layer seconds.
type layerTimes struct {
	mine, phase1, phase2, incremental, finalize, probe float64
}

func (d *decomposition) times(tr *Tracer) layerTimes {
	var lt layerTimes
	lt.mine = tr.Span(d.root).Dur().Seconds()
	lt.phase1 = tr.Span(d.phase1).Dur().Seconds()
	lt.phase2 = tr.Span(d.phase2).Dur().Seconds()
	lt.incremental = lt.phase2 - tr.Self(d.phase2).Seconds()
	if d.finalize != 0 {
		lt.finalize = tr.Span(d.finalize).Dur().Seconds()
		lt.probe = lt.finalize - tr.Self(d.finalize).Seconds()
	}
	return lt
}

// traceMine is the traced run of a mining workload: set-up spans, bare
// passes, then traced decompositions alternating with untraced core.Mine
// runs, which give the tracing overhead and the reference each
// decomposition must reproduce.
func traceMine(b *bench, spec mineSpec, db seqdb.Scanner, c compat.Source, path string, want outcome) error {
	tr := b.tr
	var imports []float64
	for _, s := range tr.spans {
		if s.Name == "seqdb.import" {
			imports = append(imports, s.Dur().Seconds())
		}
	}
	b.set("seqdb.import_s", median(imports[1:])) // the first set-up is the warm-up

	// Bare passes: decode only, no counting.
	var passes []float64
	var bytesPerPass float64
	disk, _ := db.(*seqdb.DiskDB)
	for i := 0; i < 6; i++ {
		var read0 int64
		if disk != nil {
			read0 = disk.BytesRead()
		}
		runtime.GC()
		sp := tr.Start("seqdb.pass", 0)
		err := db.Scan(func(int, []pattern.Symbol) error { return nil })
		tr.End(sp)
		if err != nil {
			return err
		}
		if i > 0 {
			passes = append(passes, tr.Span(sp).Dur().Seconds())
		}
		if disk != nil {
			bytesPerPass = float64(disk.BytesRead() - read0)
		}
	}
	passS := median(passes)
	b.set("seqdb.pass_s", passS)
	b.set("seqdb.bytes_per_pass", bytesPerPass)
	if spec.onDisk {
		if st, err := os.Stat(path); err == nil {
			b.set("seqdb.log_bytes_per_seq", float64(st.Size())/float64(db.Len()))
		}
	}

	var untraced, traced []float64
	var lts []layerTimes
	var last *decomposition
	start := time.Now()
	for i := 0; i < 4 || time.Now().Before(b.deadline(start)); i++ {
		r, err := timeRep(func() (any, error) {
			cfg := spec.cfg
			cfg.Rng = rand.New(rand.NewSource(b.seed))
			res, err := core.Mine(db, c, cfg)
			if b.op(err) != nil {
				return nil, err
			}
			got := outcomeOf(res.Frequent, res.Border, res.Scans, res.Phase3)
			b.check(got == want, "untraced mine %d: %+v, want %+v", i+1, got, want)
			return res, nil
		})
		if err != nil {
			return err
		}
		var d *decomposition
		if _, err := timeRep(func() (any, error) {
			var err error
			d, err = decompose(b, spec.cfg, db, c)
			return d, b.op(err)
		}); err != nil {
			return err
		}
		got := outcomeOf(d.frequent, pattern.Border(d.frequent), d.scans, d.p3)
		b.check(got == want, "traced decomposition %d: %+v, want %+v", i+1, got, want)
		b.check(d.passes == d.scans, "traced decomposition %d: database counted %d passes, result %d scans", i+1, d.passes, d.scans)
		if i == 0 {
			continue // warm-up pair
		}
		untraced = append(untraced, r.wall)
		lt := d.times(tr)
		traced = append(traced, lt.mine)
		lts = append(lts, lt)
		last = d
	}
	pick := func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(lts))
		for i, lt := range lts {
			xs[i] = f(lt)
		}
		return median(xs)
	}
	phase1 := pick(func(l layerTimes) float64 { return l.phase1 })
	b.set("core.phase1_s", phase1)
	b.set("core.phase1_kernel_s", phase1-passS)
	b.set("miner.phase2_s", pick(func(l layerTimes) float64 { return l.phase2 }))
	b.set("match.incremental_s", pick(func(l layerTimes) float64 { return l.incremental }))
	b.set("miner.phase2_self_s", pick(func(l layerTimes) float64 { return l.phase2 - l.incremental }))
	b.set("border.finalize_s", pick(func(l layerTimes) float64 { return l.finalize }))
	b.set("miner.probe_s", pick(func(l layerTimes) float64 { return l.probe }))
	b.set("border.self_s", pick(func(l layerTimes) float64 { return l.finalize - l.probe }))
	b.set("seqdb.full_passes", float64(last.passes))
	b.set("miner.candidates", float64(sumInts(last.p2.CandidatesPerLevel)))
	b.set("miner.ambiguous", float64(last.p2.Ambiguous.Len()))
	b.set("miner.phase2_alloc_mb", last.allocMB)
	if last.p3 != nil {
		b.set("match.probe_kernel_s", pick(func(l layerTimes) float64 { return l.probe })-float64(last.p3.Scans)*passS)
		b.set("border.probe_scans", float64(last.p3.Scans))
		b.set("border.probed", float64(last.p3.Probed))
		b.set("border.probed_ratio", float64(last.p3.Probed)/float64(last.p2.Ambiguous.Len()))
	}
	b.set("trace.mine_s", median(traced))
	b.set("trace.untraced_mine_s", median(untraced))
	b.set("trace.overhead_ratio", median(traced)/median(untraced))
	fmt.Fprintf(os.Stderr, "lspperf: %d traced and %d untraced mines\n", len(traced), len(untraced))
	return nil
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
