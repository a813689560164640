package shardrpc

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// Machine-readable rejection reasons (kebab-case, matching the jobs server).
const (
	ReasonUnauthorized   = "unauthorized"
	ReasonBadRequest     = "bad-request"
	ReasonLayoutMismatch = "layout-mismatch"
	ReasonScanFailed     = "scan-failed"
)

// Server answers probe-batch RPCs over a shard set it can open on demand.
// Every node opens the full set — which is what lets the coordinator
// reassign any shard to any node with bit-identical results — and each
// request names the single shard to scan.
type Server struct {
	// Open returns the node's database. It is called once per probe request
	// (scanners are not safe for concurrent independent passes), so it should
	// be cheap: a MemDB constructor over retained slices, or OpenShardSet
	// over OS-cached files.
	Open func() (seqdb.Scanner, error)
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>" on
	// every request; mismatches are rejected 401 with a machine-readable
	// reason.
	AuthToken string
	// MaxBodyBytes bounds the request body (default 1 << 26: probe batches
	// carry the matrix cells and up to MemBudget patterns).
	MaxBodyBytes int64
	// Metrics, when non-nil, records served sequences and scan bytes.
	Metrics *telemetry.Metrics
	// Logf, when non-nil, logs one line per failed request.
	Logf func(format string, args ...any)
}

// serverError is an internal failure with an HTTP mapping.
type serverError struct {
	code   int
	reason string
	err    error
}

func (e *serverError) Error() string { return e.err.Error() }

// Handler returns the node's HTTP handler, mounting POST /v1/shards/probe.
// Mount it beside the jobs API (cmd/lspserve -serve-shards) or alone.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/probe", s.auth(s.handleProbe))
	return mux
}

func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.AuthToken != "" {
			want := "Bearer " + s.AuthToken
			got := r.Header.Get("Authorization")
			if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
				s.reject(w, r, &serverError{http.StatusUnauthorized, ReasonUnauthorized,
					errors.New("missing or invalid bearer token")})
				return
			}
		}
		h(w, r)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) reject(w http.ResponseWriter, r *http.Request, se *serverError) {
	s.logf("shardrpc: %s %s: %d (%s): %v", r.Method, r.URL.Path, se.code, se.reason, se.err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(se.code)
	json.NewEncoder(w).Encode(map[string]string{
		"error":  se.err.Error(),
		"reason": se.reason,
	})
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	resp, se := s.probe(r)
	if se != nil {
		s.reject(w, r, se)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// probe validates one request against the node's own shard layout and runs
// the per-block probe reduction (ScanBlocks) over the requested shard.
func (s *Server) probe(r *http.Request) (*ProbeResponse, *serverError) {
	maxBody := s.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 26
	}
	var req ProbeRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, &serverError{http.StatusBadRequest, ReasonBadRequest, fmt.Errorf("decode: %w", err)}
	}
	if req.Schema != ProbeSchema {
		return nil, &serverError{http.StatusBadRequest, ReasonBadRequest,
			fmt.Errorf("schema %q, want %q", req.Schema, ProbeSchema)}
	}
	src, err := req.Matrix()
	if err != nil {
		return nil, &serverError{http.StatusBadRequest, ReasonBadRequest, err}
	}
	for _, p := range req.Patterns {
		if err := p.Validate(); err != nil {
			return nil, &serverError{http.StatusBadRequest, ReasonBadRequest, err}
		}
		for _, d := range p {
			if !d.IsEternal() && int(d) >= req.M {
				return nil, &serverError{http.StatusBadRequest, ReasonBadRequest,
					fmt.Errorf("pattern symbol %d outside alphabet %d", d, req.M)}
			}
		}
	}

	db, err := s.Open()
	if err != nil {
		return nil, &serverError{http.StatusInternalServerError, ReasonScanFailed, fmt.Errorf("open: %w", err)}
	}
	defer closeDB(db)
	view := seqdb.ShardedView(db, req.Shards)
	// The layout handshake: a node serving a different database (or a
	// different cut of it) must fail loudly before any sums are trusted.
	if view.Len() != req.Total || view.BlockSize() != req.Block || view.NumShards() != req.Shards {
		return nil, &serverError{http.StatusBadRequest, ReasonLayoutMismatch,
			fmt.Errorf("node holds %d sequences in %d shards (block %d), coordinator wants %d in %d (block %d)",
				view.Len(), view.NumShards(), view.BlockSize(), req.Total, req.Shards, req.Block)}
	}
	if req.Shard < 0 || req.Shard >= view.NumShards() {
		return nil, &serverError{http.StatusBadRequest, ReasonLayoutMismatch,
			fmt.Errorf("shard %d outside [0,%d)", req.Shard, view.NumShards())}
	}

	probe, err := match.CompileProbeBatch(src, req.Patterns)
	if err != nil {
		return nil, &serverError{http.StatusBadRequest, ReasonBadRequest, err}
	}
	start := time.Now()
	blocks, symbols, err := ScanBlocks(r.Context(), view.Shard(req.Shard), probe, req.Block, nil)
	if err != nil {
		code := http.StatusInternalServerError
		if r.Context().Err() != nil {
			code = 499 // client closed request; nothing will read the body
		}
		return nil, &serverError{code, ReasonScanFailed, err}
	}
	resp := &ProbeResponse{Schema: ProbeSchema, Blocks: blocks, Symbols: symbols}
	for _, b := range blocks {
		resp.Sequences += int64(b.N)
	}
	s.Metrics.ShardScan(time.Since(start), resp.Sequences, scanBytes(db))
	return resp, nil
}

// ScanBlocks is the per-block probe reduction: one pass over shard that adds
// every delivered sequence's values (batch's probe kernel) into the partial
// of its probe block — ids [k·block, (k+1)·block) — in ascending id order,
// and returns the partials in ascending block order with the number of
// symbols delivered. A retrying shard re-runs the pass from no partials.
// The shard server and the local scatter-gather valuer
// (miner.ShardedMatchDBValuer) both reduce through it, which is what makes
// remote partials interchangeable with local ones. onSeq, when non-nil, is
// called with every delivered sequence's length.
func ScanBlocks(ctx context.Context, shard seqdb.Scanner, batch *match.ProbeBatch, block int, onSeq func(int)) ([]BlockPartial, int64, error) {
	var blocks []BlockPartial
	var symbols int64
	np := batch.Len()
	kernel := batch.NewWorker()
	err := seqdb.ScanPassContext(ctx, shard, func() (func(id int, seq []pattern.Symbol) error, error) {
		blocks, symbols = nil, 0
		cur := -1
		var flat []float64 // one backing array for many blocks' sums
		return func(id int, seq []pattern.Symbol) error {
			if b := id / block; b != cur {
				if len(flat) < np {
					flat = make([]float64, np*64)
				}
				blocks = append(blocks, BlockPartial{Sums: flat[:np:np]})
				flat = flat[np:]
				cur = b
			}
			last := &blocks[len(blocks)-1]
			kernel.Add(last.Sums, seq)
			last.N++
			symbols += int64(len(seq))
			if onSeq != nil {
				onSeq(len(seq))
			}
			return nil
		}, nil
	})
	return blocks, symbols, err
}

// scanBytes reports the request's real delivered bytes when the store
// counts them (the per-request open starts every counter at zero).
func scanBytes(db seqdb.Scanner) int64 {
	if n, ok := seqdb.RealBytes(db); ok {
		return n
	}
	return -1
}

// closeDB closes per-request stores that hold OS resources.
func closeDB(db seqdb.Scanner) {
	if c, ok := db.(interface{ Close() error }); ok {
		c.Close()
	}
}
