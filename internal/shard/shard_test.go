package shard

import (
	"context"
	"strings"
	"testing"

	"gcx/internal/analysis"
	"gcx/internal/core"
	"gcx/internal/xmark"
)

func compileShardable(t *testing.T, src string) (*analysis.Plan, *analysis.ShardInfo) {
	t.Helper()
	plan, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, reason := analysis.Shardable(plan)
	if info == nil {
		t.Fatalf("not shardable: %s", reason)
	}
	return plan, info
}

func sequential(t *testing.T, plan *analysis.Plan, doc string, opts core.Options) string {
	t.Helper()
	var out strings.Builder
	if _, err := core.Run(context.Background(), plan, reader(doc), &out, &opts); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func reader(doc string) core.Input { return core.Input{Reader: strings.NewReader(doc)} }

// TestByteIdentity is the acceptance property: sharded output equals
// sequential output byte for byte, across queries, worker counts and
// chunk sizes (tiny chunks stress the reorder path with one chunk per
// record).
func TestByteIdentity(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"Q1":       xmark.Queries["Q1"].Text,
		"Q6":       xmark.Queries["Q6"].Text,
		"Q13":      xmark.Queries["Q13"].Text,
		"Q17":      xmark.Queries["Q17"].Text,
		"Q20":      xmark.Queries["Q20"].Text,
		"wildcard": `<r>{ for $i in /site/regions/*/item return <n>{ $i/name }</n> }</r>`,
	}
	for name, src := range queries {
		plan, info := compileShardable(t, src)
		want := sequential(t, plan, doc, core.Options{})
		for _, workers := range []int{2, 4, 8} {
			for _, chunk := range []int{0, 4 << 10, 1} {
				var out strings.Builder
				res, err := run(context.Background(), info, reader(doc), &out,
					&core.Options{Shards: workers}, chunk)
				if err != nil {
					t.Fatalf("%s workers=%d chunk=%d: %v", name, workers, chunk, err)
				}
				if out.String() != want {
					t.Fatalf("%s workers=%d chunk=%d: output differs from sequential (%d vs %d bytes)",
						name, workers, chunk, out.Len(), len(want))
				}
				if res.OutputBytes != int64(out.Len()) {
					t.Fatalf("%s: OutputBytes = %d, wrote %d", name, res.OutputBytes, out.Len())
				}
				if res.Chunks == 0 {
					t.Fatalf("%s: no chunks", name)
				}
			}
		}
	}
}

// TestByteIdentityAcrossEngines: sharding composes with the baseline
// buffering disciplines too.
func TestByteIdentityAcrossEngines(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 64 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan, info := compileShardable(t, xmark.Queries["Q1"].Text)
	for _, eng := range []core.Engine{core.EngineGCX, core.EngineProjectionOnly, core.EngineDOM} {
		want := sequential(t, plan, doc, core.Options{Engine: eng})
		var out strings.Builder
		if _, err := run(context.Background(), info, reader(doc), &out,
			&core.Options{Engine: eng, Shards: 4}, 4<<10); err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if out.String() != want {
			t.Fatalf("engine %v: sharded output differs", eng)
		}
	}
}

func TestEmptyAndRecordlessInputs(t *testing.T) {
	_, info := compileShardable(t, `<out>{ for $p in /site/people/person return $p/name }</out>`)
	for _, doc := range []string{``, `<site><regions/></site>`, `<other/>`} {
		var out strings.Builder
		res, err := Run(context.Background(), info, reader(doc), &out, &core.Options{Shards: 4})
		if err != nil {
			t.Fatalf("doc %q: %v", doc, err)
		}
		if out.String() != "<out></out>" {
			t.Fatalf("doc %q: output = %q", doc, out.String())
		}
		if res.Chunks != 0 {
			t.Fatalf("doc %q: chunks = %d", doc, res.Chunks)
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 128 << 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, info := compileShardable(t, xmark.Queries["Q1"].Text)
	var seq strings.Builder
	// Reference run with subtree skipping off, so its token count
	// covers the full document (the skipping engine fast-forwards
	// irrelevant sections and counts fewer tokens than the splitter
	// leaves in the chunks).
	sres, err := core.Run(context.Background(), plan, reader(doc), &seq, &core.Options{DisableSubtreeSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res, err := run(context.Background(), info, reader(doc), &out, &core.Options{Shards: 4}, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.TokensProcessed == 0 || res.TotalAppended == 0 {
		t.Fatalf("counters not aggregated: %+v", res)
	}
	// Workers see only record subtrees (plus synthesized wrappers), so
	// they process fewer tokens than the sequential run over the full
	// document — that work skipping is the point of sharding.
	if res.TokensProcessed >= sres.TokensProcessed {
		t.Fatalf("sharded tokens %d ≥ sequential %d", res.TokensProcessed, sres.TokensProcessed)
	}
	// Summed per-worker peaks bound the sequential peak from above.
	if res.PeakBufferedNodes < sres.PeakBufferedNodes {
		t.Fatalf("summed peak %d below sequential peak %d", res.PeakBufferedNodes, sres.PeakBufferedNodes)
	}
	if res.Duration <= 0 {
		t.Fatal("duration not measured")
	}
}

func TestMalformedInputFails(t *testing.T) {
	_, info := compileShardable(t, `<out>{ for $p in /site/people/person return $p/name }</out>`)
	doc := `<site><people><person><name>A</name></wrong></people></site>`
	var out strings.Builder
	if _, err := Run(context.Background(), info, reader(doc), &out, &core.Options{Shards: 2}); err == nil {
		t.Fatal("malformed input did not fail")
	}
}

// TestWorkerErrorPropagates: a record whose evaluation fails inside a
// worker (malformed nested content the splitter does not inspect) must
// surface as the execution error.
func TestWorkerErrorPropagates(t *testing.T) {
	_, info := compileShardable(t, `<out>{ for $p in /site/people/person return $p/name }</out>`)
	// The attribute is malformed (no quotes): the splitter passes it
	// through raw, the worker's tokenizer rejects it.
	doc := `<site><people><person><name malformed=1>A</name></person></people></site>`
	var out strings.Builder
	if _, err := Run(context.Background(), info, reader(doc), &out, &core.Options{Shards: 2}); err == nil {
		t.Fatal("worker tokenizer error did not propagate")
	}
}

func TestCancellation(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, info := compileShardable(t, xmark.Queries["Q1"].Text)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	if _, err := run(ctx, info, reader(doc), &out, &core.Options{Shards: 4}, 1<<10); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
