// Package gcx is a streaming XQuery engine with dynamic buffer
// minimization, a Go reproduction of the GCX system (Koch, Scherzinger,
// Schmidt: "The GCX System: Dynamic Buffer Minimization in Streaming
// XQuery Evaluation", VLDB 2007).
//
// GCX evaluates a practical fragment of composition-free XQuery over
// XML streams in a single pass. At compile time it derives projection
// paths from the query — each defining a role, a token of future
// relevance — and inserts signOff statements at preemption points. At
// runtime, only nodes matched by a projection path are buffered; as
// sign-offs strip roles from buffered nodes, subtrees whose role count
// reaches zero are purged immediately (active garbage collection),
// keeping memory proportional to what the remaining evaluation can
// still touch rather than to the input size.
//
// Quick start:
//
//	q, err := gcx.Compile(`<out>{ for $b in /bib/book return $b/title }</out>`)
//	if err != nil { ... }
//	res, err := q.Execute(inputReader, os.Stdout, gcx.Options{})
//	fmt.Println(res.PeakBufferedNodes) // high watermark of the buffer
//
// Besides the GCX engine itself the package bundles two reference
// engines used by the paper's evaluation — full buffering (EngineDOM)
// and static projection without garbage collection
// (EngineProjectionOnly) — selectable via Options.Engine, so the
// paper's comparisons can be reproduced with a one-line change.
package gcx

import (
	"context"
	"io"
	"strings"
	"time"
	"unsafe"

	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/core"
	"gcx/internal/engine"
	"gcx/internal/obs"
	"gcx/internal/shard"
	"gcx/internal/stats"
)

// ErrBufferBudget is the sentinel returned (wrapped, with the concrete
// numbers) when a run's buffer population crosses
// Options.MaxBufferedNodes: the engine degrades gracefully within one
// token of the breach instead of buffering without bound. Match with
// errors.Is. For the sequential streaming engines the partial Result is
// returned alongside the error.
var ErrBufferBudget = buffer.ErrBudget

// The run vocabulary is defined once, in internal/core (with the
// sign-off modes in internal/engine, the buffer plot in internal/stats
// and the trace phases in internal/obs); these aliases are its public
// names.
type (
	// Options tunes query execution; see core.Options for every field.
	Options = core.Options
	// Result reports the statistics of one execution; see core.Result.
	Result = core.Result
	// Engine selects the buffering discipline of Execute.
	Engine = core.Engine
	// SignOffMode selects when a signOff on a still-streaming subtree
	// takes effect; see DESIGN.md §3.
	SignOffMode = engine.SignOffMode
	// Format selects the input syntax — and with it the output syntax
	// (DESIGN.md §8); see core.Format.
	Format = core.Format
	// SeriesPoint is one sample of the buffer plot: tokens processed
	// (the paper's x-axis), nodes buffered (y-axis) and estimated bytes.
	SeriesPoint = stats.Point
	// CompileOptions exposes the static-analysis switches; the zero
	// value reproduces the paper's analysis. See analysis.Options.
	CompileOptions = analysis.Options
	// TracePhase is one phase of an execution trace
	// (Options.EnableTrace): a stage name and the cumulative wall time
	// spent in it.
	TracePhase = obs.PhaseTime
)

// The constants of the aliased types; core and engine document each.
const (
	EngineGCX            = core.EngineGCX            // stream projection plus active GC (default)
	EngineProjectionOnly = core.EngineProjectionOnly // static projection, never purges
	EngineDOM            = core.EngineDOM            // buffers the complete input

	SignOffDeferred = engine.Deferred // removal waits for the close tag (default)
	SignOffEager    = engine.Eager    // reads to the subtree's end, removes at once

	FormatAuto   = core.FormatAuto   // sniff: '<' means XML, anything else JSON
	FormatXML    = core.FormatXML    // the paper's XML front end
	FormatJSON   = core.FormatJSON   // whitespace-separated JSON values
	FormatNDJSON = core.FormatNDJSON // one JSON record per line; shardable
)

// MaxShards is the upper bound on Options.Shards: each shard is a full
// engine instance with its own buffer manager, so larger requests are
// clamped rather than translated into unbounded goroutines.
const MaxShards = shard.MaxWorkers

// ParseFormat resolves a CLI/URL format name: auto, xml, json, ndjson
// (aliases jsonl, json-lines). The empty string means FormatAuto.
func ParseFormat(s string) (Format, error) { return core.ParseFormat(s) }

// DetectPathFormat guesses a format from a file name's extension
// (.xml, .json, .ndjson, .jsonl), returning FormatAuto when the
// extension is not telling.
func DetectPathFormat(path string) Format { return core.DetectPathFormat(path) }

// ParseEngine resolves a CLI/URL engine name: gcx, projection (aliases
// proj, nogc) or dom (alias naive). The empty string means EngineGCX.
// Engine.String returns the canonical name.
func ParseEngine(s string) (Engine, error) { return core.ParseEngine(s) }

// ParseSignOffMode resolves a CLI/URL sign-off mode name: deferred or
// eager. The empty string means SignOffDeferred.
func ParseSignOffMode(s string) (SignOffMode, error) { return core.ParseSignOffMode(s) }

// Role describes one projection path derived by static analysis.
type Role struct {
	// Name is the paper-style role name: r1, r2, …
	Name string
	// Path is the absolute projection path (e.g. "/bib/*/price[1]").
	Path string
	// Kind classifies the role: root, binding, output, exists, operand
	// or count.
	Kind string
	// Provenance points at the query fragment that created the role.
	Provenance string
}

// Query is a compiled query, reusable across executions. A Query is
// immutable after compilation and safe for concurrent use: any number
// of goroutines may call Execute/ExecuteContext on the same Query over
// distinct input streams simultaneously — all per-run state (tokenizer,
// buffer manager, evaluator) is created per call.
type Query struct {
	plan *analysis.Plan
	// shardInfo is the compile-time partitioning recipe; nil when the
	// query must run sequentially, with shardReason saying why.
	shardInfo   *analysis.ShardInfo
	shardReason string
	// compileNanos is the wall time Compile spent on this query,
	// reported as the trace's compile phase.
	compileNanos int64
}

// Compile parses and statically analyzes a query: normalization to the
// single-step core, projection-path/role derivation and signOff
// insertion.
func Compile(src string) (*Query, error) {
	return CompileWithOptions(src, CompileOptions{})
}

// CompileWithOptions compiles with explicit analysis switches.
func CompileWithOptions(src string, opts CompileOptions) (*Query, error) {
	start := time.Now()
	plan, err := core.CompileWithOptions(src, opts)
	if err != nil {
		return nil, err
	}
	q := &Query{plan: plan}
	q.shardInfo, q.shardReason = analysis.Shardable(plan)
	q.compileNanos = int64(time.Since(start))
	return q, nil
}

// MustCompile is Compile for static queries; it panics on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Roles returns the projection paths derived from the query, in
// derivation order (the paper's numbering r1, r2, …).
func (q *Query) Roles() []Role {
	roles := make([]Role, len(q.plan.Roles))
	for i, r := range q.plan.Roles {
		roles[i] = Role{
			Name:       r.Name(),
			Path:       r.Path.String(),
			Kind:       r.Kind.String(),
			Provenance: r.Provenance,
		}
	}
	return roles
}

// Explain renders the analyzer's verdicts as text: the role browser and
// the rewritten query with its signOff statements — the textual
// counterpart of the demo's Fig. 3(a) visualization — plus the
// streamability, static-bound, skipping and sharding lines. It is
// generated from the structured Report (ExplainReport.Text), so the two
// forms cannot drift.
func (q *Query) Explain() string { return q.Report().Text() }

// Shardable reports whether the query can run sharded (DESIGN.md §6):
// partitionable on its outermost for-loop path, with no state shared
// across iterations. Non-shardable queries silently run sequentially
// regardless of Options.Shards.
func (q *Query) Shardable() bool { return q.shardInfo != nil }

// UsesAggregation reports whether the query needs the aggregation
// extension (count/sum/min/max/avg).
func (q *Query) UsesAggregation() bool { return q.plan.UsesAggregation }

// Execute evaluates the query over input, writing the serialized result
// to output. It returns an error for Options carrying an unknown Engine
// or SignOffMode value or a negative Shards count rather than guessing.
// A node-budget breach (an error wrapping ErrBufferBudget) returns the
// partial Result of a sequential run alongside the error.
func (q *Query) Execute(input io.Reader, output io.Writer, opts Options) (*Result, error) {
	return q.run(context.Background(), core.Input{Reader: input}, output, &opts)
}

// ExecuteContext evaluates the query over input under a cancellation
// context, writing the serialized result to output. Cancellation is
// observed at every token-pull boundary, so the run aborts within one
// token of ctx being cancelled and returns ctx.Err() without writing
// further output.
func (q *Query) ExecuteContext(ctx context.Context, input io.Reader, output io.Writer, opts Options) (*Result, error) {
	return q.run(ctx, core.Input{Reader: input}, output, &opts)
}

// ExecuteBytes evaluates the query over an in-memory document. See
// ExecuteBytesContext.
func (q *Query) ExecuteBytes(data []byte, output io.Writer, opts Options) (*Result, error) {
	return q.run(context.Background(), core.Input{Bytes: data}, output, &opts)
}

// ExecuteBytesContext evaluates the query over an in-memory document
// under a cancellation context, writing the serialized result to
// output. This is the zero-copy fast path (DESIGN.md §12): the
// tokenizer scans data in place with whole-window vectorized scans and
// text tokens borrow subslices of data instead of allocating copies.
// The aliasing contract is the caller's side of that bargain: data must
// not be mutated until the call returns. Sharded runs split data with
// the same zero-copy scan and hand workers subslices where the format
// allows.
func (q *Query) ExecuteBytesContext(ctx context.Context, data []byte, output io.Writer, opts Options) (*Result, error) {
	return q.run(ctx, core.Input{Bytes: data}, output, &opts)
}

// ExecuteString is a convenience wrapper evaluating over a string input
// and returning the output as a string.
func (q *Query) ExecuteString(input string, opts Options) (string, *Result, error) {
	return q.ExecuteStringContext(context.Background(), input, opts)
}

// ExecuteStringContext is ExecuteString under a cancellation context,
// with the same within-one-token abort guarantee as ExecuteContext. It
// runs on the zero-copy byte path: strings are immutable, so viewing
// the input's bytes in place satisfies ExecuteBytesContext's aliasing
// contract for free. On error the output is empty; a budget breach
// still returns the partial Result.
func (q *Query) ExecuteStringContext(ctx context.Context, input string, opts Options) (string, *Result, error) {
	var out strings.Builder
	data := unsafe.Slice(unsafe.StringData(input), len(input))
	res, err := q.run(ctx, core.Input{Bytes: data}, &out, &opts)
	if err != nil {
		return "", res, err
	}
	return out.String(), res, nil
}

// run is the one execution path behind every Execute method. It
// decides sequential vs sharded: sharding needs Shards > 1, a
// partitionable query, no buffer-plot recording and a format the
// splitters can cut; everything else runs core.Run. Traced runs get
// the query's compile time as their first phase.
func (q *Query) run(ctx context.Context, in core.Input, output io.Writer, opts *Options) (*Result, error) {
	var res *Result
	var err error
	if opts.Shards > 1 && q.shardInfo != nil && opts.RecordEvery == 0 && formatShardable(opts.Format, q.shardInfo) {
		res, err = shard.Run(ctx, q.shardInfo, in, output, opts)
	} else {
		res, err = core.Run(ctx, q.plan, in, output, opts)
	}
	if res != nil && opts.EnableTrace {
		res.Trace = append([]TracePhase{{Phase: obs.PhaseCompile.String(), Nanos: q.compileNanos}}, res.Trace...)
	}
	return res, err
}

// formatShardable reports whether sharded execution is available for
// the requested input format. XML (and Auto, which the splitter treats
// as XML) partitions at the compiled partition path; NDJSON partitions
// at newlines when the query is NDJSON-eligible (wrapperless, cut at or
// below /root/record — analysis.NDJSONShardable); plain JSON makes no
// line-framing promise and always runs sequentially.
func formatShardable(f Format, info *analysis.ShardInfo) bool {
	switch f {
	case FormatNDJSON:
		return analysis.NDJSONShardable(info) == ""
	case FormatJSON:
		return false
	default:
		return true
	}
}
