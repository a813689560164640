package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/stream"
)

// Stream-follow shape: the lspbench base recipe, fed through the server's
// append endpoint in batches of streamBatch sequences after a warm-up of
// streamWarmup, one batch in flight at a time (a closed loop with one
// client). Appends are not fsynced; the follower's checkpoint is saved
// crash-atomically after every batch.
const (
	streamWarmup = 10000
	streamBatch  = 100
	// streamBatchesPerSecond sizes the schedule from --seconds: a fixed
	// schedule per setting, because the window grows with every batch and
	// runs must compare equal windows.
	streamBatchesPerSecond = 4
	// streamMinBatches keeps ten batches beyond the 90th percentile.
	streamMinBatches = 100
)

var streamData = datagen.ProteinConfig{
	M: 20, MinLen: 24, MaxLen: 40, NumMotifs: 3, MotifLen: 5, PlantProb: 0.40,
}

const streamAlpha = 0.05

func streamConfig(seed int64, ckpt string) core.StreamConfig {
	return core.StreamConfig{
		Config: core.Config{
			MinMatch: 0.20, Delta: 1e-4, SampleSize: 1000, MaxLen: 6, MaxGap: 0,
			MaxCandidatesPerLevel: 50000, MemBudget: 500, Workers: runtime.GOMAXPROCS(0),
		},
		Seed:           seed,
		CheckpointPath: ckpt,
	}
}

// session is one streaming deployment: an in-process jobs.Server owning the
// log's write handle, served over loopback HTTP, and a read-only follower.
type session struct {
	dir      string
	logPath  string
	ckpt     string
	writer   *seqdb.AppendDB
	manager  *jobs.Manager
	srv      *http.Server
	served   chan error
	url      string
	client   *http.Client
	roLog    *seqdb.AppendDB // the follower's handle
	follower *core.Stream
	total    int // sequences acknowledged
	rejected int // append responses other than 200
}

func openSession(dir string, c compat.Source, seed int64) (*session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &session{dir: dir, logPath: filepath.Join(dir, "stream.lsa"), ckpt: filepath.Join(dir, "follow.lckp")}
	var err error
	if s.writer, err = seqdb.CreateAppend(s.logPath); err != nil {
		return nil, err
	}
	if s.manager, err = jobs.NewManager(jobs.Options{Dir: filepath.Join(dir, "jobs")}); err != nil {
		s.close()
		return nil, err
	}
	server := jobs.NewServer(s.manager)
	server.AppendLog = &jobs.AppendLog{DB: s.writer, Sync: false}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: server.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Timeout: time.Minute}
	if s.roLog, err = seqdb.OpenAppendRead(s.logPath); err != nil {
		s.close()
		return nil, err
	}
	if s.follower, err = core.NewStream(s.roLog, c, streamConfig(seed, s.ckpt)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the server and waits for it, then releases every handle.
func (s *session) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.srv.Shutdown(ctx)
		cancel()
		<-s.served
		s.client.CloseIdleConnections()
	}
	if s.manager != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.manager.Shutdown(ctx)
		cancel()
	}
	if s.roLog != nil {
		s.roLog.Close()
	}
	if s.writer != nil {
		s.writer.Close()
	}
}

type appendBody struct {
	Sequences   [][]pattern.Symbol `json:"sequences"`
	ExpectTotal *int               `json:"expect_total,omitempty"`
}

// appendBatch POSTs one batch with the expected log total and checks the
// acknowledgement.
func (s *session) appendBatch(seqs [][]pattern.Symbol) error {
	total := s.total
	body, err := json.Marshal(appendBody{Sequences: seqs, ExpectTotal: &total})
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.url+"/v1/append", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		s.rejected++
		return fmt.Errorf("append: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var ack struct {
		FirstID  int `json:"first_id"`
		Appended int `json:"appended"`
		Total    int `json:"total"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if ack.FirstID != total || ack.Appended != len(seqs) || ack.Total != total+len(seqs) {
		return fmt.Errorf("append acknowledged %+v at total %d", ack, total)
	}
	s.total = ack.Total
	return nil
}

// advance moves the follower over everything acknowledged and checks that
// it consumed exactly that.
func (s *session) advance() (*stream.Result, error) {
	res, err := s.follower.Advance(context.Background())
	if err != nil {
		return nil, err
	}
	if res.Total != s.total {
		return nil, fmt.Errorf("follower advanced to %d, log holds %d", res.Total, s.total)
	}
	return res, nil
}

func streamFollow(b *bench) error {
	batches := max(streamMinBatches, int(b.seconds*streamBatchesPerSecond))
	data := streamData
	data.N = streamWarmup + batches*streamBatch
	rng := rand.New(rand.NewSource(b.seed))
	std, _, err := datagen.Protein(data, rng)
	if err != nil {
		return err
	}
	noisy, err := datagen.ApplyUniformNoise(std, data.M, streamAlpha, rng)
	if err != nil {
		return err
	}
	seqs := make([][]pattern.Symbol, 0, noisy.Len())
	for i := 0; i < noisy.Len(); i++ {
		seqs = append(seqs, noisy.Seq(i))
	}
	c, err := compat.UniformNoise(data.M, streamAlpha)
	if err != nil {
		return err
	}

	// Set-up: the warm-up appends through the server, then the follower's
	// first Advance, each time into a fresh deployment.
	var s *session
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	var setupTimes []float64
	start := time.Now()
	for i := 0; i <= 3 || time.Since(start) < 3*time.Second; i++ {
		if s != nil {
			s.close()
		}
		if s, err = openSession(filepath.Join(b.dir, fmt.Sprintf("setup-%d", i)), c, b.seed); err != nil {
			return err
		}
		r, err := timeRep(func() (any, error) {
			for lo := 0; lo < streamWarmup; lo += streamBatch {
				if err := b.op(s.appendBatch(seqs[lo : lo+streamBatch])); err != nil {
					return nil, err
				}
			}
			res, err := s.advance()
			return res, b.op(err)
		})
		if err != nil {
			return err
		}
		if i > 0 {
			setupTimes = append(setupTimes, r.wall)
		}
	}
	b.set("setup_s", median(setupTimes))

	tr := b.tr
	var reps []rep
	var scans, remined, reprobes, passes int
	var tracedLat, untracedLat, advances, appends, tails, saves []float64
	var ckptBytes int64
	var last *stream.Result
	tail, err := seqdb.OpenAppendRead(s.logPath)
	if err != nil {
		return err
	}
	defer tail.Close()
	passes0 := s.roLog.Scans()
	for i := 0; i < batches; i++ {
		lo := streamWarmup + i*streamBatch
		batch := seqs[lo : lo+streamBatch]
		// With tracing on, every other batch runs without spans, so the
		// traced run measures its own overhead.
		spans := tr != nil && i%2 == 0
		var t *Tracer
		if spans {
			t = tr
		}
		var res *stream.Result
		var appendS, advanceS float64
		r, err := timeRep(func() (any, error) {
			root := t.Start("stream.batch", 0)
			defer t.End(root)
			sp := t.Start("jobs.append", root)
			t0 := time.Now()
			err := b.op(s.appendBatch(batch))
			appendS = time.Since(t0).Seconds()
			t.End(sp)
			if err != nil {
				return nil, err
			}
			sp = t.Start("stream.advance", root)
			t0 = time.Now()
			res, err = s.advance()
			advanceS = time.Since(t0).Seconds()
			t.End(sp)
			return res, b.op(err)
		})
		if err != nil {
			return err
		}
		reps = append(reps, r)
		scans += res.Scans
		reprobes += res.ReprobesAvoided
		if res.Remined {
			remined++
		}
		last = res
		if tr == nil {
			continue
		}
		appends = append(appends, appendS)
		advances = append(advances, advanceS)
		if spans {
			tracedLat = append(tracedLat, r.wall)
		} else {
			untracedLat = append(untracedLat, r.wall)
		}
		// Side measurements outside the batch latency: the new batch read
		// back through a second read-only handle, and the follower's
		// checkpoint saved again to a side path.
		sp := tr.Start("seqdb.tail", 0)
		got := 0
		_, err = tail.ScanSince(context.Background(), lo, func(int, []pattern.Symbol) error { got++; return nil })
		tr.End(sp)
		if err != nil {
			return err
		}
		b.check(got == streamBatch, "tail scan of batch %d delivered %d sequences", i+1, got)
		tails = append(tails, tr.Span(sp).Dur().Seconds())
		snap, err := checkpoint.Load(s.ckpt)
		if err != nil {
			return err
		}
		sp = tr.Start("checkpoint.save", 0)
		ckptBytes, err = checkpoint.Save(filepath.Join(s.dir, "side.lckp"), snap)
		tr.End(sp)
		if err != nil {
			return err
		}
		saves = append(saves, tr.Span(sp).Dur().Seconds())
	}
	passes = s.roLog.Scans() - passes0

	// The final set must equal a fresh follower's, advanced once over the
	// same final log.
	fresh, err := seqdb.OpenAppendRead(s.logPath)
	if err != nil {
		return err
	}
	defer fresh.Close()
	once, err := core.NewStream(fresh, c, streamConfig(b.seed, filepath.Join(b.dir, "fresh.lckp")))
	if err != nil {
		return err
	}
	oneShot, err := once.Advance(context.Background())
	if b.op(err) != nil {
		return err
	}
	b.check(oneShot.Total == s.total, "fresh follower consumed %d of %d sequences", oneShot.Total, s.total)
	b.check(digest(oneShot.Frequent) == digest(last.Frequent),
		"final frequent set: follower %d patterns (%s), fresh follower %d (%s)",
		last.Frequent.Len(), digest(last.Frequent), oneShot.Frequent.Len(), digest(oneShot.Frequent))
	fmt.Fprintf(os.Stderr, "lspperf: %d batches, %d re-mined, %d window scans, final %d frequent\n",
		batches, remined, scans, last.Frequent.Len())

	n := float64(batches)
	if tr == nil {
		var wall []float64
		for _, r := range reps {
			wall = append(wall, r.wall)
		}
		if _, beyond := nearestRank(wall, 90); beyond < 10 {
			return fmt.Errorf("%d batches leave %d beyond the 90th percentile, want 10", len(wall), beyond)
		}
		reportReps(b, reps)
		return nil
	}

	// Bare pass over the final window through the follower's handle kind.
	var bare []float64
	var bytesPerPass float64
	for i := 0; i < 6; i++ {
		read0 := tail.BytesRead()
		runtime.GC()
		sp := tr.Start("seqdb.pass", 0)
		err := tail.Scan(func(int, []pattern.Symbol) error { return nil })
		tr.End(sp)
		if err != nil {
			return err
		}
		if i > 0 {
			bare = append(bare, tr.Span(sp).Dur().Seconds())
		}
		bytesPerPass = float64(tail.BytesRead() - read0)
	}
	b.set("seqdb.pass_s", median(bare))
	b.set("seqdb.bytes_per_pass", bytesPerPass)
	b.set("seqdb.full_passes", float64(passes)/n)
	b.set("stream.advance_s", median(advances))
	b.set("stream.remine_ratio", float64(remined)/n)
	b.set("stream.window_scans", float64(scans)/n)
	b.set("stream.reprobes_avoided", float64(reprobes)/n)
	b.set("jobs.append_s", median(appends))
	b.set("jobs.append_rejected", float64(s.rejected))
	b.set("seqdb.tail_s", median(tails))
	if st, err := os.Stat(s.logPath); err == nil {
		b.set("seqdb.log_bytes_per_seq", float64(st.Size())/float64(s.total))
	}
	b.set("checkpoint.save_s", median(saves))
	b.set("checkpoint.bytes", float64(ckptBytes))
	b.set("trace.mine_s", median(tracedLat))
	b.set("trace.untraced_mine_s", median(untracedLat))
	b.set("trace.overhead_ratio", median(tracedLat)/median(untracedLat))
	return nil
}
