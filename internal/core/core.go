// Package core wires the compile pipeline (parse → normalize → analyze
// → rewrite) and the single sequential run path behind the public gcx
// package. It is the seam between the paper's static analysis
// (internal/analysis) and the three runtime disciplines compared in the
// paper's Figure 5. Options, Input and Result are the run vocabulary
// every layer above the engine shares; gcx re-exports them as type
// aliases.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"gcx/internal/analysis"
	"gcx/internal/baseline"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/obs"
	"gcx/internal/stats"
	"gcx/internal/xqparse"
)

// Engine selects the buffering discipline of a run.
type Engine uint8

const (
	// EngineGCX is the paper's engine: stream projection plus active
	// garbage collection (default).
	EngineGCX Engine = iota
	// EngineProjectionOnly applies static projection but never purges —
	// the static-analysis-only class of systems in the paper's Fig. 5.
	EngineProjectionOnly
	// EngineDOM buffers the complete input before evaluating — the
	// conventional in-memory class (Galax, Saxon, QizX in the paper).
	EngineDOM
)

// String returns the canonical name: gcx, projection or dom.
func (e Engine) String() string {
	switch e {
	case EngineGCX:
		return "gcx"
	case EngineProjectionOnly:
		return "projection"
	case EngineDOM:
		return "dom"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// ParseEngine resolves a CLI/URL engine name: gcx, projection (aliases
// proj, nogc) or dom (alias naive). The empty string means EngineGCX.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "gcx":
		return EngineGCX, nil
	case "projection", "proj", "nogc":
		return EngineProjectionOnly, nil
	case "dom", "naive":
		return EngineDOM, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want gcx, projection or dom)", s)
	}
}

// ParseSignOffMode resolves a CLI/URL sign-off mode name: deferred or
// eager. The empty string means deferred.
func ParseSignOffMode(s string) (engine.SignOffMode, error) {
	switch s {
	case "", "deferred":
		return engine.Deferred, nil
	case "eager":
		return engine.Eager, nil
	default:
		return 0, fmt.Errorf("unknown sign-off mode %q (want deferred or eager)", s)
	}
}

// Compile parses and analyzes a query with the paper's default
// analysis.
func Compile(src string) (*analysis.Plan, error) {
	return CompileWithOptions(src, analysis.Options{})
}

// CompileWithOptions parses and analyzes with explicit analysis
// switches (ablations, strict streaming).
func CompileWithOptions(src string, opts analysis.Options) (*analysis.Plan, error) {
	q, err := xqparse.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := analysis.AnalyzeWithOptions(q, opts)
	if err != nil {
		return nil, err
	}
	if opts.StrictStreaming && plan.Stream.Class == analysis.Unbounded {
		return nil, fmt.Errorf("gcx: strict streaming rejects statically unbounded query: %s", plan.Stream.Reason)
	}
	plan.Source = src
	return plan, nil
}

// Options tunes query execution.
type Options struct {
	Engine      Engine
	SignOffMode engine.SignOffMode
	// Format selects the input (and with it the output) syntax; the
	// zero value FormatAuto sniffs the stream's first non-whitespace
	// byte. Sharded execution (Shards > 1) partitions XML input at the
	// compiled partition path and FormatNDJSON input at newlines;
	// FormatJSON input makes no line-framing promise and always runs
	// sequentially.
	Format Format
	// EnableAggregation opts into the aggregation extension — count(),
	// sum(), min(), max(), avg() in output position (the paper's
	// fragment excludes aggregation).
	EnableAggregation bool
	// DisableSubtreeSkip turns off projection-guided byte-level subtree
	// skipping (DESIGN.md §7), forcing the streaming engines to
	// tokenize every input byte. The query output is byte-identical
	// either way; the switch exists for A/B measurements and parity
	// tests. Runs with RecordEvery set disable skipping automatically,
	// so the recorded per-token buffer plots keep the paper's x-axis.
	DisableSubtreeSkip bool
	// RecordEvery samples (tokens processed → nodes buffered) every N
	// tokens for buffer plots like the paper's Figures 3 and 4;
	// 0 disables recording. Only the streaming engines record.
	RecordEvery int64
	// Shards requests sharded data-parallel execution (DESIGN.md §6):
	// the input is partitioned at the query's outermost for-loop path
	// and evaluated by Shards concurrent engine instances, with outputs
	// merged in input order so the result is byte-identical to the
	// sequential run. 0 or 1 keeps the sequential engine; counts above
	// gcx.MaxShards are clamped; negative counts are an error. Detected
	// joins shard too: the probe side is partitioned and the build
	// section broadcast to every worker. Queries that are not
	// partitionable (whole-input aggregation, correlated loops beyond
	// the join shape — see gcx.Query.Shardable) and runs with
	// RecordEvery set fall back to sequential execution transparently.
	Shards int
	// MaxBufferedNodes, when positive, is the run's node budget
	// (DESIGN.md §9): the first buffered node pushing the population
	// past it aborts the run within one token with an error wrapping
	// gcx.ErrBufferBudget — graceful degradation instead of unbounded
	// memory. Sequential streaming runs return the partial Result
	// alongside the error. Sharded runs apply the budget per worker
	// (each shard is an independent engine instance), so the run's
	// total is bounded by Shards×MaxBufferedNodes. Zero means
	// unlimited. gcx.Query.Report says, per query, whether a budget can
	// statically be guaranteed to suffice — see gcx.ExplainReport.
	MaxBufferedNodes int64
	// DisableJoin turns off the streaming hash join operator
	// (DESIGN.md §10), evaluating detected two-variable equality joins
	// with nested loops instead. The query output is byte-identical
	// either way; the switch exists for A/B measurements and
	// differential tests.
	DisableJoin bool
	// EnableTrace records per-phase wall time (DESIGN.md §11) into
	// Result.Trace: compile, setup, stream, join_build/join_probe,
	// split/merge (sharded runs) and eval. For sequential runs the
	// phases after compile sum to Result.Duration exactly; sharded
	// runs sum worker phases across workers, so their total can exceed
	// the wall time. Off by default — the stamps cost two monotonic
	// clock reads per evaluator pull when on.
	EnableTrace bool
}

// Validate rejects out-of-range Engine and SignOffMode values and
// negative shard counts rather than guessing a discipline.
func (o *Options) Validate() error {
	if o.Engine > EngineDOM {
		return fmt.Errorf("gcx: unknown engine %d (want EngineGCX, EngineProjectionOnly or EngineDOM)", uint8(o.Engine))
	}
	if o.SignOffMode > engine.Eager {
		return fmt.Errorf("gcx: unknown sign-off mode %d (want SignOffDeferred or SignOffEager)", o.SignOffMode)
	}
	if o.Shards < 0 {
		return fmt.Errorf("gcx: negative shard count %d", o.Shards)
	}
	return nil
}

// Input is one run's document: a stream, or — when Reader is nil — an
// in-memory byte slice. The byte form is the zero-copy path (DESIGN.md
// §12): the tokenizer scans Bytes in place and text tokens borrow
// subslices of it, so the caller must not mutate Bytes until the run
// returns.
type Input struct {
	Reader io.Reader
	Bytes  []byte
}

// source resolves f for this input (sniffing FormatAuto) and builds
// the matching event source.
func (in Input) source(f Format) (event.Source, Format, error) {
	if in.Reader == nil {
		f = ResolveFormatBytes(f, in.Bytes)
		src, err := NewSourceBytes(f, in.Bytes)
		return src, f, err
	}
	f, r, err := ResolveFormat(f, in.Reader)
	if err != nil {
		return nil, f, err
	}
	src, err := NewSource(f, r)
	return src, f, err
}

// Result reports the statistics of one execution.
type Result struct {
	// TokensProcessed is the number of input tokens delivered to the
	// engine. With subtree skipping active (the default, DESIGN.md §7)
	// tokens inside skipped subtrees are not produced and therefore not
	// counted — see BytesSkipped/TagsSkipped for what was
	// fast-forwarded. Runs with DisableSubtreeSkip or RecordEvery set
	// count every token of the document.
	TokensProcessed int64
	// PeakBufferedNodes is the buffer high watermark in nodes.
	PeakBufferedNodes int64
	// PeakBufferedBytes estimates the memory high watermark.
	PeakBufferedBytes int64
	// FinalBufferedNodes is the buffer population after evaluation.
	FinalBufferedNodes int64
	// TotalAppended and TotalPurged count buffer churn over the run.
	TotalAppended int64
	TotalPurged   int64
	// OutputBytes is the size of the serialized result.
	OutputBytes int64
	// BytesSkipped is the number of input bytes the engine
	// fast-forwarded past at byte level without tokenizing, because the
	// compiled path automaton proved no projection path could observe
	// them (DESIGN.md §7). Zero when skipping is disabled or the query
	// observes the whole document.
	BytesSkipped int64
	// TagsSkipped counts element tags inside skipped subtrees — a lower
	// bound on the tokens the run did not have to produce (text runs in
	// skipped subtrees are not counted).
	TagsSkipped int64
	// SubtreesSkipped counts byte-level fast-forwards taken.
	SubtreesSkipped int64
	// JoinProbeTuples, JoinBuildTuples and JoinMatches report the
	// streaming hash join operator's work (DESIGN.md §10): probe-side
	// bindings captured, build-side tuples materialized into the hash
	// table, and matched payload emissions. All zero when the query has
	// no detected join or Options.DisableJoin is set.
	JoinProbeTuples int64
	JoinBuildTuples int64
	JoinMatches     int64
	// Duration is the wall-clock execution time.
	Duration time.Duration
	// Series is the recorded buffer plot (empty unless
	// Options.RecordEvery was set).
	Series []stats.Point
	// ShardsUsed is the number of parallel engine instances the run
	// used: 1 for the sequential path (including fallbacks from
	// Options.Shards > 1), the clamped Options.Shards when sharding was
	// applied. Under sharding the buffer watermarks are sums of
	// per-worker peaks, a documented upper bound (DESIGN.md §6).
	ShardsUsed int
	// Chunks is the number of input partitions of a sharded run
	// (0 for sequential runs).
	Chunks int
	// Trace is the per-phase wall-time breakdown of the run, starting
	// with the query's compile time; nil unless Options.EnableTrace was
	// set.
	Trace []obs.PhaseTime
}

// Run evaluates a compiled plan sequentially over in, writing the
// result to output. It validates opts, resolves the format, and picks
// the discipline: the streaming engine (GCX, or projection-only with
// garbage collection off) or the DOM baseline. The streaming engines
// observe ctx at every token-pull boundary, the DOM baseline during
// parsing and between loop iterations; on cancellation ctx.Err() is
// returned and no further output is written. A node-budget breach
// returns the partial statistics alongside the error.
//
// A Plan is immutable after compilation, so any number of Run calls
// may share one plan across goroutines; all per-run state lives in the
// engine instance created here.
func Run(ctx context.Context, plan *analysis.Plan, in Input, output io.Writer, opts *Options) (*Result, error) {
	start := time.Now()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var timer *obs.Timer
	if opts.EnableTrace {
		timer = new(obs.Timer)
	}
	src, format, err := in.source(opts.Format)
	if err != nil {
		return nil, err
	}
	sink, err := NewSink(format, output)
	if err != nil {
		src.Release()
		return nil, err
	}
	if timer != nil {
		timer.Add(obs.PhaseSetup, time.Since(start))
	}
	var res *engine.Result
	var rec *stats.Recorder
	if opts.Engine == EngineDOM {
		res, err = baseline.RunDOMSource(ctx, plan, src, sink, opts.EnableAggregation, opts.MaxBufferedNodes)
		src.Release()
		sink.Release()
	} else {
		cfg := engine.Config{
			SignOffMode:       opts.SignOffMode,
			DisableGC:         opts.Engine == EngineProjectionOnly,
			EnableAggregation: opts.EnableAggregation,
			DisableSkip:       opts.DisableSubtreeSkip,
			MaxBufferedNodes:  opts.MaxBufferedNodes,
			DisableJoin:       opts.DisableJoin,
			Timer:             timer,
		}
		if opts.RecordEvery > 0 {
			rec = stats.NewRecorder(opts.RecordEvery)
			cfg.Recorder = rec
		}
		eng := engine.New(plan, src, sink, cfg)
		res, err = eng.RunContext(ctx)
		// The result only carries counters, so the engine's pooled
		// buffers (source, sink, node slabs) go back to their pools
		// right away.
		eng.Release()
	}
	if res == nil {
		// Only budget breaches carry partial statistics.
		return nil, err
	}
	out := &Result{
		TokensProcessed:    res.TokensProcessed,
		PeakBufferedNodes:  res.PeakBufferedNodes,
		PeakBufferedBytes:  res.PeakBufferedBytes,
		FinalBufferedNodes: res.FinalBufferedNodes,
		TotalAppended:      res.TotalAppended,
		TotalPurged:        res.TotalPurged,
		OutputBytes:        res.OutputBytes,
		BytesSkipped:       res.BytesSkipped,
		TagsSkipped:        res.TagsSkipped,
		SubtreesSkipped:    res.SubtreesSkipped,
		JoinProbeTuples:    res.JoinProbeTuples,
		JoinBuildTuples:    res.JoinBuildTuples,
		JoinMatches:        res.JoinMatches,
		Duration:           time.Since(start),
		ShardsUsed:         1,
	}
	if timer != nil {
		// eval is the wall-time remainder after every stamped phase, so
		// the phases sum to Duration exactly.
		if rest := int64(out.Duration) - timer.Sum(); rest > 0 {
			timer.AddNanos(obs.PhaseEval, rest)
		}
		out.Trace = timer.Phases()
	}
	if rec != nil && err == nil {
		out.Series = rec.Points
	}
	return out, err
}
