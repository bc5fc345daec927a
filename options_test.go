package gcx_test

import (
	"io"
	"strings"
	"testing"

	"gcx"
)

// entryPoints runs one query through each public input path. Every
// path shares one execution path, so option validation and partial
// results must agree across them.
var entryPoints = map[string]func(q *gcx.Query, doc string, opts gcx.Options) (*gcx.Result, error){
	"Execute": func(q *gcx.Query, doc string, opts gcx.Options) (*gcx.Result, error) {
		return q.Execute(strings.NewReader(doc), io.Discard, opts)
	},
	"ExecuteBytes": func(q *gcx.Query, doc string, opts gcx.Options) (*gcx.Result, error) {
		return q.ExecuteBytes([]byte(doc), io.Discard, opts)
	},
	"ExecuteString": func(q *gcx.Query, doc string, opts gcx.Options) (*gcx.Result, error) {
		_, res, err := q.ExecuteString(doc, opts)
		return res, err
	},
}

// expectOptionError checks that opts is rejected with an error naming
// want on every entry point, sequential (Shards 0) and sharded
// (Shards 4, on a shardable query).
func expectOptionError(t *testing.T, opts gcx.Options, want string) {
	t.Helper()
	q := gcx.MustCompile(`<out>{ for $b in /a/b return $b }</out>`)
	if !q.Shardable() {
		t.Fatal("query must be shardable to reach the sharded path")
	}
	for name, run := range entryPoints {
		for _, shards := range []int{0, 4} {
			opts.Shards = shards
			res, err := run(q, "<a><b/><b/></a>", opts)
			if err == nil {
				t.Fatalf("%s shards=%d: expected an error mentioning %s", name, shards, want)
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s shards=%d: err = %v, want mention of %s", name, shards, err, want)
			}
			if res != nil {
				t.Errorf("%s shards=%d: rejected options returned a Result", name, shards)
			}
		}
	}
}

// TestExecuteUnknownEngine: an out-of-range Engine value must be
// reported, not silently fall back to EngineGCX.
func TestExecuteUnknownEngine(t *testing.T) {
	q := gcx.MustCompile(`<out>{ /a/b }</out>`)
	_, err := q.Execute(strings.NewReader("<a><b/></a>"), io.Discard, gcx.Options{Engine: gcx.Engine(42)})
	if err == nil {
		t.Fatal("expected error for unknown engine value")
	}
	if !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("err = %v, want mention of unknown engine", err)
	}
	expectOptionError(t, gcx.Options{Engine: gcx.Engine(42)}, "unknown engine")
}

// TestExecuteUnknownSignOffMode: an out-of-range SignOffMode must be
// reported, not silently treated as deferred.
func TestExecuteUnknownSignOffMode(t *testing.T) {
	q := gcx.MustCompile(`<out>{ /a/b }</out>`)
	_, err := q.Execute(strings.NewReader("<a><b/></a>"), io.Discard, gcx.Options{SignOffMode: gcx.SignOffMode(7)})
	if err == nil {
		t.Fatal("expected error for unknown sign-off mode")
	}
	if !strings.Contains(err.Error(), "unknown sign-off mode") {
		t.Errorf("err = %v, want mention of unknown sign-off mode", err)
	}
	expectOptionError(t, gcx.Options{SignOffMode: gcx.SignOffMode(7)}, "unknown sign-off mode")
}

// TestExecuteNegativeShards: a negative shard count is an error on
// every entry point, not a silent sequential run.
func TestExecuteNegativeShards(t *testing.T) {
	q := gcx.MustCompile(`<out>{ for $b in /a/b return $b }</out>`)
	for name, run := range entryPoints {
		if _, err := run(q, "<a><b/></a>", gcx.Options{Shards: -1}); err == nil || !strings.Contains(err.Error(), "negative shard count") {
			t.Errorf("%s: err = %v, want negative shard count", name, err)
		}
	}
}

// TestExecuteKnownOptionValues: every documented combination still
// executes.
func TestExecuteKnownOptionValues(t *testing.T) {
	q := gcx.MustCompile(`<out>{ /a/b }</out>`)
	const doc = "<a><b>1</b></a>"
	for _, eng := range []gcx.Engine{gcx.EngineGCX, gcx.EngineProjectionOnly, gcx.EngineDOM} {
		for _, mode := range []gcx.SignOffMode{gcx.SignOffDeferred, gcx.SignOffEager} {
			out, _, err := q.ExecuteString(doc, gcx.Options{Engine: eng, SignOffMode: mode})
			if err != nil {
				t.Fatalf("engine %d, mode %d: %v", eng, mode, err)
			}
			if out != "<out><b>1</b></out>" {
				t.Errorf("engine %d, mode %d: output %q", eng, mode, out)
			}
		}
	}
}
