// Package gcxd implements the GCX query server behind cmd/gcxd: a
// concurrent HTTP front end over the streaming engine, importable so
// tests and the gcxload harness can run an in-process instance.
//
// Observability (DESIGN.md §11): every serving counter lives in one
// obs.Registry — GET /metrics renders the Prometheus text exposition,
// GET /stats the legacy JSON view over a single atomic snapshot of the
// same values, so the two cannot drift and related counters cannot tear
// mid-read. Request logging goes through log/slog with one line per
// query carrying the query hash, engine, format, shards, bytes and
// outcome.
package gcxd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"gcx"
	"gcx/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// CacheSize is the compiled-query LRU capacity (≤ 0 uses 256).
	CacheSize int
	// MaxInflight bounds concurrently executing /query requests; above
	// it the server sheds load with 503 + Retry-After instead of
	// queueing without bound. 0 means unlimited.
	MaxInflight int
	// BytesBodyLimit routes request bodies with a known Content-Length
	// at or below this many bytes through the zero-copy []byte engine
	// path (DESIGN.md §12): the body is buffered once and scanned in
	// place instead of streamed through the refill cursor. 0 uses
	// DefaultBytesBodyLimit; negative disables the fast path. Requests
	// without a Content-Length (chunked uploads) always stream.
	BytesBodyLimit int64
	// Logger receives one structured line per request; nil discards.
	Logger *slog.Logger
}

// DefaultBytesBodyLimit is the default small-body threshold (1 MiB): a
// body this size buffers in one allocation that is cheaper than the
// per-token costs the zero-copy path saves.
const DefaultBytesBodyLimit = 1 << 20

// Server is the gcxd HTTP handler; it is safe for concurrent use.
type Server struct {
	mux   *http.ServeMux
	cache *gcx.QueryCache
	log   *slog.Logger
	reg   *obs.Registry

	// inflight is the admission semaphore (nil = unlimited): a slot is
	// held for the whole execution, so MaxInflight bounds engine
	// concurrency, not just accept concurrency.
	inflight chan struct{}

	// bytesBodyLimit is the resolved small-body threshold (-1 when the
	// bytes fast path is disabled).
	bytesBodyLimit int64

	requests *obs.Counter
	errors   *obs.Counter
	bytesOut *obs.Counter

	// Sharded-execution counters: requests that asked for shards > 1,
	// worker instances launched and chunks processed on their behalf,
	// and requests that fell back to the sequential engine because the
	// query was not partitionable.
	shardedRequests *obs.Counter
	shardWorkers    *obs.Counter
	shardChunks     *obs.Counter
	shardFallbacks  *obs.Counter

	// Subtree-skipping counters (DESIGN.md §7): input bytes the engines
	// fast-forwarded past without tokenizing, and fast-forwards taken.
	bytesSkipped    *obs.Counter
	subtreesSkipped *obs.Counter

	// jsonRequests counts requests that selected the JSON/NDJSON front
	// end via ?format= (DESIGN.md §8).
	jsonRequests *obs.Counter

	// Streaming-join counters (DESIGN.md §10): probe bindings, build
	// tuples and matched emissions across all runs of detected joins.
	joinProbeTuples *obs.Counter
	joinBuildTuples *obs.Counter
	joinMatches     *obs.Counter

	// Budget accounting (DESIGN.md §9): requests rejected at admission
	// because a ?max_nodes= budget met a statically-unbounded query, and
	// runs aborted because the buffer hit the budget at runtime.
	budgetRejections *obs.Counter
	budgetTrips      *obs.Counter

	// Lifetime buffer high-water marks across all requests, in the
	// engine's node/byte metrics.
	peakNodes *obs.Gauge
	peakBytes *obs.Gauge

	// Load-shedding accounting: currently executing requests and
	// requests rejected because MaxInflight was saturated.
	inflightGauge      *obs.Gauge
	inflightRejections *obs.Counter

	// Per-request latency and response size, labeled by engine, format
	// and outcome (ok | error | budget).
	latency  *obs.HistogramVec
	respSize *obs.HistogramVec
}

// NewServer builds a server with its metrics registry.
func NewServer(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	logger := cfg.Logger
	if logger == nil {
		// Discard via a disabled-level text handler (slog.DiscardHandler
		// needs go ≥ 1.24; the module targets 1.22).
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	r := obs.New()
	s := &Server{
		mux:   http.NewServeMux(),
		cache: gcx.NewQueryCache(cfg.CacheSize),
		log:   logger,
		reg:   r,

		requests: r.Counter("gcx_requests_total", "HTTP requests received, across all endpoints.").Key("requests"),
		errors:   r.Counter("gcx_request_errors_total", "Requests that ended in an error response or error trailer.").Key("errors"),
		bytesOut: r.Counter("gcx_response_bytes_total", "Query result bytes written to clients.").Key("bytes_out"),

		shardedRequests: r.Counter("gcx_sharded_requests_total", "Requests that asked for shards > 1.").Key("sharded_requests"),
		shardWorkers:    r.Counter("gcx_shard_workers_total", "Parallel engine instances launched for sharded requests.").Key("shard_workers"),
		shardChunks:     r.Counter("gcx_shard_chunks_total", "Input chunks processed by sharded requests.").Key("shard_chunks"),
		shardFallbacks:  r.Counter("gcx_shard_fallbacks_total", "Sharded requests that fell back to sequential execution.").Key("shard_fallbacks"),

		bytesSkipped:    r.Counter("gcx_input_bytes_skipped_total", "Input bytes fast-forwarded past by subtree skipping.").Key("bytes_skipped"),
		subtreesSkipped: r.Counter("gcx_subtrees_skipped_total", "Byte-level subtree fast-forwards taken.").Key("subtrees_skipped"),

		jsonRequests: r.Counter("gcx_json_requests_total", "Requests using the JSON/NDJSON front end.").Key("json_requests"),

		joinProbeTuples: r.Counter("gcx_join_probe_tuples_total", "Probe-side bindings captured by the streaming join.").Key("join_probe_tuples"),
		joinBuildTuples: r.Counter("gcx_join_build_tuples_total", "Build-side tuples materialized by the streaming join.").Key("join_build_tuples"),
		joinMatches:     r.Counter("gcx_join_matches_total", "Matched payload emissions of the streaming join.").Key("join_matches"),

		budgetRejections: r.Counter("gcx_budget_rejections_total", "Budgeted requests rejected at admission (statically unbounded query).").Key("budget_rejections"),
		budgetTrips:      r.Counter("gcx_budget_trips_total", "Runs aborted because the buffer hit the node budget.").Key("budget_trips"),

		peakNodes: r.Gauge("gcx_peak_buffered_nodes", "Lifetime buffer high-water mark in nodes, across all requests.").Key("peak_buffered_nodes"),
		peakBytes: r.Gauge("gcx_peak_buffered_bytes", "Lifetime buffer high-water mark in bytes, across all requests.").Key("peak_buffered_bytes"),

		inflightGauge:      r.Gauge("gcx_inflight_requests", "Query requests currently executing.").Key("inflight_requests"),
		inflightRejections: r.Counter("gcx_inflight_rejections_total", "Requests shed with 503 because -max-inflight was saturated.").Key("inflight_rejections"),

		latency:  r.HistogramVec("gcx_request_duration_seconds", "Query latency by engine, format, outcome and input path.", obs.LatencyBuckets, "engine", "format", "outcome", "input_path"),
		respSize: r.HistogramVec("gcx_response_size_bytes", "Query response size by engine, format, outcome and input path.", obs.SizeBuckets, "engine", "format", "outcome", "input_path"),
	}
	switch {
	case cfg.BytesBodyLimit < 0:
		s.bytesBodyLimit = -1
	case cfg.BytesBodyLimit == 0:
		s.bytesBodyLimit = DefaultBytesBodyLimit
	default:
		s.bytesBodyLimit = cfg.BytesBodyLimit
	}
	// Cache metrics read the cache's own counters at collection time.
	r.GaugeFunc("gcx_cache_entries", "Compiled queries in the LRU cache.", func() int64 {
		return int64(s.cache.Len())
	}).Key("cache_len")
	r.CounterFunc("gcx_cache_hits_total", "Compiled-query cache hits.", func() int64 {
		hits, _ := s.cache.Stats()
		return hits
	}).Key("cache_hits")
	r.CounterFunc("gcx_cache_misses_total", "Compiled-query cache misses (compiles).", func() int64 {
		_, misses := s.cache.Stats()
		return misses
	}).Key("cache_misses")

	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// queryHash is the stable short id request logs carry instead of the
// query text (queries can be kilobytes and carry user data).
func queryHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:4])
}

// observePeaks folds one run's buffer watermarks into the server-wide
// high-water marks.
func (s *Server) observePeaks(res *gcx.Result) {
	if res == nil {
		return
	}
	s.peakNodes.Max(res.PeakBufferedNodes)
	s.peakBytes.Max(res.PeakBufferedBytes)
}

// observeJoin folds one run's join counters into the server totals.
// Budget-tripped runs contribute their partial counts: how far the
// probe/build sides got before the breach is exactly what an operator
// sizing max_nodes wants to see.
func (s *Server) observeJoin(res *gcx.Result) {
	if res == nil {
		return
	}
	s.joinProbeTuples.Add(res.JoinProbeTuples)
	s.joinBuildTuples.Add(res.JoinBuildTuples)
	s.joinMatches.Add(res.JoinMatches)
}

// optionsFromRequest maps URL parameters to execution options.
func optionsFromRequest(r *http.Request) (gcx.Options, error) {
	var opts gcx.Options
	var err error
	if opts.Engine, err = gcx.ParseEngine(r.URL.Query().Get("engine")); err != nil {
		return opts, err
	}
	if opts.SignOffMode, err = gcx.ParseSignOffMode(r.URL.Query().Get("signoff")); err != nil {
		return opts, err
	}
	if agg := r.URL.Query().Get("agg"); agg == "1" || agg == "true" {
		opts.EnableAggregation = true
	}
	if sh := r.URL.Query().Get("shards"); sh != "" {
		n, err := strconv.Atoi(sh)
		if err != nil || n < 1 || n > gcx.MaxShards {
			return opts, fmt.Errorf("invalid shards %q (want 1..%d)", sh, gcx.MaxShards)
		}
		opts.Shards = n
	}
	format, err := gcx.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		return opts, err
	}
	opts.Format = format
	if mn := r.URL.Query().Get("max_nodes"); mn != "" {
		n, err := strconv.ParseInt(mn, 10, 64)
		if err != nil || n < 1 {
			return opts, fmt.Errorf("invalid max_nodes %q (want a positive node count)", mn)
		}
		opts.MaxBufferedNodes = n
	}
	if tr := r.URL.Query().Get("trace"); tr == "1" || tr == "true" {
		opts.EnableTrace = true
	}
	return opts, nil
}

// contentType maps the request's input format to the response body's
// media type: XML results for XML input, JSON lines otherwise. Auto is
// reported as XML — the historical default — since the body's real
// format is only known after sniffing begins streaming.
func contentType(f gcx.Format) string {
	switch f {
	case gcx.FormatJSON, gcx.FormatNDJSON:
		return "application/x-ndjson"
	default:
		return "application/xml"
	}
}

// countingWriter tracks whether (and how much of) the response body has
// hit the wire, which decides between a clean error status and an error
// trailer on a stream that already started.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST with the XML document as request body")
		return
	}
	src := r.Header.Get("X-GCX-Query")
	if src == "" {
		src = r.URL.Query().Get("query")
	}
	if src == "" {
		s.fail(w, http.StatusBadRequest, "missing query: pass the X-GCX-Query header or the ?query= parameter")
		return
	}
	opts, err := optionsFromRequest(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	// Load shedding: a saturated server answers 503 immediately — the
	// client's cue to back off — instead of queueing requests whose
	// engines would thrash each other.
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.inflightRejections.Inc()
			s.errors.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at max in-flight queries, retry later", http.StatusServiceUnavailable)
			s.log.Warn("query shed", "query", queryHash(src), "status", http.StatusServiceUnavailable)
			return
		}
	}
	s.inflightGauge.Add(1)
	defer s.inflightGauge.Add(-1)

	// outcome/status drive the latency and size histogram labels and the
	// request log line written on every exit path below.
	outcome, status := "ok", http.StatusOK
	inputPath := "stream"
	var res *gcx.Result
	cw := &countingWriter{w: w}
	defer func() {
		d := time.Since(start)
		eng, format := opts.Engine.String(), opts.Format.String()
		s.latency.With(eng, format, outcome, inputPath).Observe(d.Seconds())
		s.respSize.With(eng, format, outcome, inputPath).Observe(float64(cw.n))
		attrs := []any{
			"query", queryHash(src), "engine", eng, "format", format,
			"shards", opts.Shards, "input_path", inputPath, "bytes_out", cw.n,
			"dur_ms", d.Milliseconds(), "outcome", outcome, "status", status,
		}
		if res != nil {
			attrs = append(attrs, "tokens", res.TokensProcessed, "peak_nodes", res.PeakBufferedNodes)
		}
		if outcome == "ok" {
			s.log.Info("query", attrs...)
		} else {
			s.log.Warn("query", attrs...)
		}
	}()

	q, err := s.cache.Get(src)
	if err != nil {
		outcome, status = "error", http.StatusBadRequest
		s.fail(w, status, "compile error: "+err.Error())
		return
	}
	if opts.MaxBufferedNodes > 0 {
		// Admission control: a budget-carrying request with a query the
		// analyzer proved unbounded can only end in a mid-stream abort,
		// so reject it up front with the analyzer's reason. Detected
		// joins are exempt: they are classified unbounded (the build side
		// is buffered to end of input), but the join operator enforces
		// the budget on the build table and degrades gracefully with
		// partial statistics, surfacing as a budget_trip below — the
		// budget is exactly the knob that makes such a query admissible.
		if rep := q.Report(); rep.Streamability == "unbounded" && rep.Join == nil {
			s.budgetRejections.Inc()
			outcome, status = "budget", http.StatusRequestEntityTooLarge
			s.fail(w, status,
				"query is statically unbounded and cannot run under max_nodes: "+rep.StreamabilityReason)
			return
		}
	}

	w.Header().Set("Content-Type", contentType(opts.Format))
	w.Header().Set("Trailer", "X-Gcx-Error, X-Gcx-Tokens, X-Gcx-Peak-Nodes, X-Gcx-Peak-Bytes, X-Gcx-Shards, X-Gcx-Bytes-Skipped, X-Gcx-Trace")
	if n := r.ContentLength; n >= 0 && s.bytesBodyLimit >= 0 && n <= s.bytesBodyLimit {
		// Small body with a known length: buffer it once and take the
		// zero-copy engine path (DESIGN.md §12). The net/http layer
		// already caps Body at Content-Length, so ReadAll is bounded.
		body, rerr := io.ReadAll(r.Body)
		if rerr != nil {
			outcome, status = "error", http.StatusBadRequest
			s.fail(w, status, "reading request body: "+rerr.Error())
			return
		}
		inputPath = "bytes"
		res, err = q.ExecuteBytesContext(r.Context(), body, cw, opts)
	} else {
		// The engine reads the body while the response streams out. An
		// HTTP/1 handler that is not full-duplex loses the unread body
		// once the response header flushes: net/http discards and closes
		// it if less than 256 KiB remain, under a sharded run's splitter.
		// HTTP/2 is full-duplex already. The only error is
		// ErrNotSupported, from a wrapping writer that hides the mode;
		// the run then streams as before.
		_ = http.NewResponseController(w).EnableFullDuplex()
		res, err = q.ExecuteContext(r.Context(), r.Body, cw, opts)
	}
	s.bytesOut.Add(cw.n)
	if err != nil {
		s.observePeaks(res) // budget trips still report the partial run's watermark
		s.observeJoin(res)
		if errors.Is(err, gcx.ErrBufferBudget) {
			s.budgetTrips.Inc()
			outcome = "budget"
			if cw.n == 0 {
				status = http.StatusRequestEntityTooLarge
				s.fail(w, status, "buffer budget exceeded: "+err.Error())
				return
			}
		} else if cw.n == 0 {
			// Nothing streamed yet: the status line is still ours.
			outcome, status = "error", http.StatusUnprocessableEntity
			s.fail(w, status, "execution error: "+err.Error())
			return
		} else {
			outcome = "error"
		}
		s.errors.Inc()
		w.Header().Set("X-Gcx-Error", err.Error())
		return
	}
	s.observePeaks(res)
	s.observeJoin(res)
	if opts.Shards > 1 {
		s.shardedRequests.Inc()
		s.shardWorkers.Add(int64(res.ShardsUsed))
		s.shardChunks.Add(int64(res.Chunks))
		if res.ShardsUsed == 1 {
			s.shardFallbacks.Inc()
		}
	}
	s.bytesSkipped.Add(res.BytesSkipped)
	s.subtreesSkipped.Add(res.SubtreesSkipped)
	if opts.Format == gcx.FormatJSON || opts.Format == gcx.FormatNDJSON {
		s.jsonRequests.Inc()
	}
	w.Header().Set("X-Gcx-Tokens", fmt.Sprint(res.TokensProcessed))
	w.Header().Set("X-Gcx-Peak-Nodes", fmt.Sprint(res.PeakBufferedNodes))
	w.Header().Set("X-Gcx-Peak-Bytes", fmt.Sprint(res.PeakBufferedBytes))
	w.Header().Set("X-Gcx-Shards", fmt.Sprint(res.ShardsUsed))
	w.Header().Set("X-Gcx-Bytes-Skipped", fmt.Sprint(res.BytesSkipped))
	if opts.EnableTrace && res.Trace != nil {
		if raw, err := json.Marshal(res.Trace); err == nil {
			w.Header().Set("X-Gcx-Trace", string(raw))
		}
	}
}

// handleExplain compiles the query and returns the analyzer's
// structured report without executing it — the server-side form of
// `gcx -explain-json`.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	src := r.Header.Get("X-GCX-Query")
	if src == "" {
		src = r.URL.Query().Get("query")
	}
	if src == "" {
		s.fail(w, http.StatusBadRequest, "missing query: pass the X-GCX-Query header or the ?query= parameter")
		return
	}
	q, err := s.cache.Get(src)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "compile error: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(q.Report())
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.errors.Inc()
	http.Error(w, msg, code)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleStats serves the legacy JSON counter view: one atomic snapshot
// of the registry, so related counters cannot tear against each other.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.reg.Snapshot())
}

// handleMetrics serves the Prometheus text exposition of the same
// registry /stats snapshots.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.reg.WritePrometheus(w)
}
