// Package shard implements sharded data-parallel execution (DESIGN.md
// §6): the input stream is partitioned into record-aligned chunks by a
// single scanning pass (xmltok.Splitter for XML, jsontok.Splitter for
// NDJSON — DESIGN.md §8), a pool of workers runs one
// independent engine instance per chunk — each with its own tokenizer,
// buffer manager and serializer — and an ordered merge emits the worker
// outputs in input order, so the sharded result is byte-identical to
// the sequential one. Whether a plan may be sharded, and along which
// path, is decided at compile time by analysis.Shardable.
package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"gcx/internal/analysis"
	"gcx/internal/core"
	"gcx/internal/jsontok"
	"gcx/internal/obs"
	"gcx/internal/xmltok"
	"gcx/internal/xpath"
)

// MaxWorkers caps the worker pool: each worker is a full engine
// instance with its own tokenizer and buffer manager, so an unbounded
// Options.Shards from a caller must not translate into unbounded
// goroutines. 64 comfortably exceeds any machine this targets.
const MaxWorkers = 64

// task is one chunk travelling through the pool: the producer enqueues
// it to the workers and, in input order, to the merger; the worker
// posts its output on done (capacity 1, so workers never block on a
// slow merge). data is the chunk's bytes regardless of which splitter
// produced it.
type task struct {
	data []byte
	// extra is the broadcast build fragment of a join-sharded run,
	// shared (not copied) across all tasks; nil otherwise.
	extra []byte
	done  chan taskResult
}

type taskResult struct {
	out *bytes.Buffer
	res *core.Result
	err error
}

// outBufPool recycles the per-chunk output buffers.
var outBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errShardJoinNDJSON guards a route analysis.NDJSONShardable already
// rejects; reaching it means a caller bypassed the eligibility check.
var errShardJoinNDJSON = errors.New("shard: join plans cannot shard over NDJSON input")

// joinFragment synthesizes the broadcast build fragment of a
// join-sharded run: open tags for the build ancestors below the
// divergence, the captured build subtrees verbatim, the matching close
// tags, and finally the close tags of the shared ancestors the
// splitter left open on every chunk. All steps are name tests
// (analysis.Shardable requires it for join recipes), so the tag names
// are statically known.
func joinFragment(info *analysis.ShardInfo, aux []byte) []byte {
	var b bytes.Buffer
	steps := info.BuildPath.Steps
	for _, st := range steps[info.Divergence : len(steps)-1] {
		b.WriteByte('<')
		b.WriteString(st.Test.Name)
		b.WriteByte('>')
	}
	b.Write(aux)
	for i := len(steps) - 2; i >= info.Divergence; i-- {
		b.WriteString("</")
		b.WriteString(steps[i].Test.Name)
		b.WriteByte('>')
	}
	shared := info.PartitionPath.Steps
	for i := info.Divergence - 1; i >= 0; i-- {
		b.WriteString("</")
		b.WriteString(shared[i].Test.Name)
		b.WriteByte('>')
	}
	return b.Bytes()
}

// Run evaluates info's plan sharded over in, writing the merged output
// to output. It runs min(opts.Shards, MaxWorkers) workers (at least
// two; callers route 0/1 to core.Run), each calling core.Run on one
// chunk with opts minus RecordEvery — buffer-plot recording is a
// sequential-run feature. On the byte path the splitter scans
// in.Bytes in place (NDJSON chunks alias it — zero copies on the split
// side). The reorder window is bounded: at most 2×workers chunks are
// in flight between splitter and merge, so memory stays proportional
// to workers × chunk size regardless of input size.
//
// Stats semantics under sharding (DESIGN.md §6): counters
// (TokensProcessed, TotalAppended, TotalPurged, OutputBytes, the skip
// and join counters) are sums over the workers; the buffer watermarks
// PeakBufferedNodes and PeakBufferedBytes are the sum of the per-worker
// peaks — an upper bound on the true simultaneous peak, since workers
// run staggered. TokensProcessed counts chunk-document tokens, which
// differ slightly from the sequential token count (synthesized wrapper
// tags; skipped non-record content). Any worker error, a budget breach
// included, fails the whole run with a nil Result.
func Run(ctx context.Context, info *analysis.ShardInfo, in core.Input, output io.Writer, opts *core.Options) (*core.Result, error) {
	return run(ctx, info, in, output, opts, 0)
}

// run is Run with an explicit splitter chunk size target (0 uses the
// splitter default); the tests shrink it to force many chunks.
func run(ctx context.Context, info *analysis.ShardInfo, in core.Input, output io.Writer, opts *core.Options, chunkTarget int) (*core.Result, error) {
	start := time.Now()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	workers := min(max(opts.Shards, 2), MaxWorkers)
	wopts := *opts
	wopts.RecordEvery = 0

	// st collects the shard-level trace phases (DESIGN.md §11): the
	// synchronous chunk scan of a join-sharded run (PhaseSplit; the
	// streaming splitter overlaps the workers and is not separable) and
	// the ordered merge's writes (PhaseMerge). Worker phases are summed
	// across workers in the merge loop, so a sharded trace's phase total
	// can exceed the run's wall time.
	var st obs.Timer

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The splitter is format-specific: XML input is cut at partition-
	// path record boundaries with ancestor re-wrapping (xmltok), NDJSON
	// at newlines with no re-wrapping at all (jsontok). Both deliver
	// self-contained chunk documents the workers evaluate independently.
	var nextChunk func() ([]byte, error)
	var extra []byte
	if opts.Format == core.FormatNDJSON {
		if info.Join {
			return nil, errShardJoinNDJSON
		}
		var sp *jsontok.Splitter
		if in.Reader == nil {
			sp = jsontok.NewSplitterBytes(in.Bytes)
		} else {
			sp = jsontok.NewSplitter(in.Reader)
		}
		sp.SetContext(cctx)
		sp.SetTargetBytes(chunkTarget)
		nextChunk = func() ([]byte, error) {
			c, err := sp.Next()
			return c.Data, err
		}
	} else {
		steps := make([]xmltok.SplitStep, len(info.PartitionPath.Steps))
		for i, st := range info.PartitionPath.Steps {
			steps[i] = xmltok.SplitStep{Name: st.Test.Name, Wildcard: st.Test.Kind == xpath.TestWildcard}
		}
		var sp *xmltok.Splitter
		if in.Reader == nil {
			sp = xmltok.NewSplitterBytes(in.Bytes, steps)
		} else {
			sp = xmltok.NewSplitter(in.Reader, steps)
		}
		sp.SetContext(cctx)
		sp.SetTargetBytes(chunkTarget)
		nextChunk = func() ([]byte, error) {
			c, err := sp.Next()
			return c.Data, err
		}
		if info.Join {
			// Join runs are two-phase (DESIGN.md §10): the build section
			// may follow the probe records in document order, so no chunk
			// can be evaluated before the scan completes. Collect every
			// chunk first, then broadcast the build fragment — the
			// captured build subtrees re-wrapped under the ancestors the
			// splitter left open — to all of them. The reorder window
			// bound does not apply: a join run holds all chunks in memory.
			auxSteps := make([]xmltok.SplitStep, len(info.BuildPath.Steps))
			for i, st := range info.BuildPath.Steps {
				auxSteps[i] = xmltok.SplitStep{Name: st.Test.Name, Wildcard: st.Test.Kind == xpath.TestWildcard}
			}
			sp.CaptureAux(auxSteps, info.Divergence)
			splitStart := time.Now()
			var chunks [][]byte
			for {
				select {
				case <-cctx.Done():
					return nil, cctx.Err()
				default:
				}
				data, err := nextChunk()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				chunks = append(chunks, data)
			}
			extra = joinFragment(info, sp.AuxData())
			if opts.EnableTrace {
				st.Add(obs.PhaseSplit, time.Since(splitStart))
			}
			i := 0
			nextChunk = func() ([]byte, error) {
				if i == len(chunks) {
					return nil, io.EOF
				}
				data := chunks[i]
				chunks[i] = nil
				i++
				return data, nil
			}
		}
	}

	work := make(chan *task, workers)
	order := make(chan *task, 2*workers)
	var splitErr error

	// Producer: scan the input once, cutting record chunks. Tasks are
	// offered to the workers first and to the ordered merge queue
	// second, so every task the merger waits on is already visible to a
	// worker.
	go func() {
		defer close(order)
		defer close(work)
		for {
			data, err := nextChunk()
			if err == io.EOF {
				return
			}
			if err != nil {
				splitErr = err
				return
			}
			t := &task{data: data, extra: extra, done: make(chan taskResult, 1)}
			select {
			case work <- t:
			case <-cctx.Done():
				return
			}
			select {
			case order <- t:
			case <-cctx.Done():
				return
			}
		}
	}()

	// Workers: one engine instance per chunk, each with its own buffer
	// manager, under the caller's context.
	for i := 0; i < workers; i++ {
		go func() {
			for t := range work {
				buf := outBufPool.Get().(*bytes.Buffer)
				buf.Reset()
				// Chunk bytes are immutable once handed out (fresh buffers
				// from the reader splitters, input subslices from the
				// bytes splitters): take the zero-copy path.
				chunk := core.Input{Bytes: t.data}
				if t.extra != nil {
					chunk = core.Input{Reader: io.MultiReader(bytes.NewReader(t.data), bytes.NewReader(t.extra))}
				}
				res, err := core.Run(cctx, info.Inner, chunk, buf, &wopts)
				t.done <- taskResult{out: buf, res: res, err: err}
			}
		}()
	}

	// Ordered merge: consume the order queue — input order by
	// construction — and stream each chunk's output as soon as it is
	// ready. The constant wrapper prefix is withheld until there is
	// something to write, mirroring the sequential engine's buffered
	// serializer, which emits nothing when a run fails early.
	agg := &core.Result{ShardsUsed: workers}
	var firstErr error
	wrotePrefix := false
	writeOut := func(p []byte) error {
		if opts.EnableTrace {
			ws := time.Now()
			defer func() { st.Add(obs.PhaseMerge, time.Since(ws)) }()
		}
		if !wrotePrefix {
			if _, err := output.Write(info.Prefix); err != nil {
				return err
			}
			wrotePrefix = true
		}
		_, err := output.Write(p)
		return err
	}
	for t := range order {
		r := <-t.done
		if firstErr == nil && r.err != nil {
			firstErr = r.err
			cancel() // stop the producer and drain the remaining chunks
		}
		if firstErr == nil {
			if err := writeOut(r.out.Bytes()); err != nil {
				firstErr = err
				cancel()
			} else {
				agg.TokensProcessed += r.res.TokensProcessed
				agg.PeakBufferedNodes += r.res.PeakBufferedNodes
				agg.PeakBufferedBytes += r.res.PeakBufferedBytes
				agg.FinalBufferedNodes += r.res.FinalBufferedNodes
				agg.TotalAppended += r.res.TotalAppended
				agg.TotalPurged += r.res.TotalPurged
				agg.OutputBytes += r.res.OutputBytes
				agg.BytesSkipped += r.res.BytesSkipped
				agg.TagsSkipped += r.res.TagsSkipped
				agg.SubtreesSkipped += r.res.SubtreesSkipped
				agg.JoinProbeTuples += r.res.JoinProbeTuples
				agg.JoinBuildTuples += r.res.JoinBuildTuples
				agg.JoinMatches += r.res.JoinMatches
				if opts.EnableTrace {
					agg.Trace = obs.SumPhases(agg.Trace, r.res.Trace)
				}
				agg.Chunks++
			}
		}
		if r.out != nil {
			outBufPool.Put(r.out)
		}
	}
	if firstErr == nil {
		firstErr = splitErr // close(order) happens-after the assignment
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := writeOut(info.Suffix); err != nil {
		return nil, err
	}
	agg.OutputBytes += int64(len(info.Prefix) + len(info.Suffix))
	if opts.EnableTrace {
		agg.Trace = obs.SumPhases(agg.Trace, st.Phases())
	}
	agg.Duration = time.Since(start)
	return agg, nil
}
