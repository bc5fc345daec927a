package gcx_test

import (
	"bytes"
	"io"
	"testing"

	"gcx"
	"gcx/internal/xmark"
)

// TestNDJSONJ1Allocs guards the buffer manager's allocation-free steady
// state end to end: J1 over a 1 MiB NDJSON bid log buffers and purges
// one small record per line, so any per-node or per-match allocation
// would show here as tens of thousands of allocations per run.
func TestNDJSONJ1Allocs(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.GenerateNDJSON(&doc, xmark.Config{TargetBytes: 1 << 20, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	q := gcx.MustCompile(xmark.NDJSONQueries["J1"].Text)
	opts := gcx.Options{Format: gcx.FormatNDJSON}
	run := func() {
		if _, err := q.ExecuteBytes(doc.Bytes(), io.Discard, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	const limit = 10000
	if got := testing.AllocsPerRun(3, run); got > limit {
		t.Fatalf("J1 over 1 MiB of NDJSON: %.0f allocs per run, want at most %d", got, limit)
	}
}
