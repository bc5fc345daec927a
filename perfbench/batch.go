package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"

	"gcx"
	"gcx/internal/xmark"
)

// batchSpec is a one-process, one-goroutine workload: one generated
// document and a query mix run round-robin through Query.ExecuteBytes.
type batchSpec struct {
	name   string
	format gcx.Format
	// size is the target input size. It is kept small because the host
	// drifts over minutes, so the shorter a run, the steadier a set of
	// runs; the XMark document is the smaller one because the DOM
	// reference of the join Q8 grows with the square of the document
	// (about 115 s at 24 MiB, 13 s at 8 MiB).
	size     int64
	queryIDs []string
	catalog  map[string]xmark.Query
	generate func(io.Writer, xmark.Config) (*xmark.Stats, error)
}

var xmarkBatch = batchSpec{
	name:     "xmark-batch",
	format:   gcx.FormatXML,
	size:     4 * mib,
	queryIDs: []string{"Q1", "Q6", "Q8", "Q13", "Q20"},
	catalog:  xmark.Queries,
	generate: xmark.Generate,
}

var ndjsonBatch = batchSpec{
	name:     "ndjson-batch",
	format:   gcx.FormatNDJSON,
	size:     8 * mib,
	queryIDs: []string{"J1", "J2", "J3"},
	catalog:  xmark.NDJSONQueries,
	generate: xmark.GenerateNDJSON,
}

// setupProcs is how many fresh processes set-up time is measured in.
const setupProcs = 21

// input generates the workload's document for a seed.
func (s batchSpec) input(seed int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.generate(&buf, xmark.Config{TargetBytes: s.size, Seed: seed}); err != nil {
		return nil, fmt.Errorf("%s: generating input: %w", s.name, err)
	}
	return buf.Bytes(), nil
}

// texts returns the query sources of the mix in round-robin order.
func (s batchSpec) texts() []string {
	out := make([]string, len(s.queryIDs))
	for i, id := range s.queryIDs {
		out[i] = s.catalog[id].Text
	}
	return out
}

// compileMix compiles every query of the mix once.
func compileMix(texts []string) ([]*gcx.Query, error) {
	qs := make([]*gcx.Query, len(texts))
	for i, src := range texts {
		q, err := gcx.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("compiling %q: %w", src, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// coldCompile returns the medians, over setupProcs fresh processes, of
// the CPU time and the wall time to compile the mix once: the cold
// gcx.Compile that a process running the workload pays.
func coldCompile(spec batchSpec) (cpu, wall float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cpus, walls := make([]float64, setupProcs), make([]float64, setupProcs)
	for i := range cpus {
		cmd := exec.Command(exe, "-compile-once", spec.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, 0, fmt.Errorf("cold compile: %w", err)
		}
		if _, err := fmt.Sscan(string(out), &cpus[i], &walls[i]); err != nil {
			return 0, 0, fmt.Errorf("cold compile: reading %q: %w", out, err)
		}
	}
	return median(cpus), median(walls), nil
}

// compileOnce is the child side of coldCompile: it compiles the named
// batch workload's mix once and prints the CPU and wall seconds it took.
func compileOnce(name string) int {
	for _, spec := range []batchSpec{xmarkBatch, ndjsonBatch} {
		if spec.name != name {
			continue
		}
		texts := spec.texts()
		cpu0, start := cpuSeconds(), time.Now()
		if _, err := compileMix(texts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
		fmt.Println(cpu, wall)
		return 0
	}
	fmt.Fprintf(os.Stderr, "perfbench: no batch workload %q\n", name)
	return 2
}

// references runs every query over doc with the DOM engine and returns
// the output hashes the timed runs must reproduce, and the outputs'
// lengths.
func references(qs []*gcx.Query, doc []byte, format gcx.Format) (refs []uint64, lens []int64, err error) {
	refs = make([]uint64, len(qs))
	lens = make([]int64, len(qs))
	hw := newHashWriter()
	for i, q := range qs {
		hw.Reset()
		if _, err := q.ExecuteBytes(doc, hw, gcx.Options{Engine: gcx.EngineDOM, Format: format}); err != nil {
			return nil, nil, fmt.Errorf("DOM reference of query %d: %w", i, err)
		}
		refs[i], lens[i] = hw.Sum(), hw.n
	}
	return refs, lens, nil
}

func runBatch(cfg runConfig, spec batchSpec) (*outcome, error) {
	doc, err := spec.input(cfg.seed)
	if err != nil {
		return nil, err
	}
	cfg.setting["input_bytes"] = len(doc)
	cfg.setting["queries"] = spec.queryIDs
	texts := spec.texts()
	setup, setupWall, err := coldCompile(spec)
	if err != nil {
		return nil, err
	}
	qs, err := compileMix(texts)
	if err != nil {
		return nil, err
	}
	refStart := time.Now()
	refs, _, err := references(qs, doc, spec.format)
	if err != nil {
		return nil, err
	}
	refSeconds := time.Since(refStart).Seconds()
	opts := gcx.Options{Format: spec.format}
	hw := newHashWriter()
	// One untimed pass warms pools and caches, then the reference DOMs'
	// garbage is returned so the heap peak reflects the timed runs.
	for _, q := range qs {
		if _, err := q.ExecuteBytes(doc, hw, opts); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	debug.FreeOSMemory()

	out := &outcome{notes: map[string]any{"reference_s": refSeconds, "setup_wall_s": setupWall}}
	var latencies []float64
	var peakNodes, peakBytes, processed int64
	sampler := startHeapSampler(5 * time.Millisecond)
	rt0, cpu0 := readRuntime(), cpuSeconds()
	start := time.Now()
	deadline := start.Add(cfg.window)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(qs)
		hw.Reset()
		t := time.Now()
		res, err := qs[k].ExecuteBytes(doc, hw, opts)
		latencies = append(latencies, float64(time.Since(t))/1e6)
		out.attempted++
		processed += int64(len(doc))
		switch {
		case err != nil:
			out.failed++
		case hw.Sum() != refs[k]:
			out.failed++
			out.wrong++
		default:
			peakNodes = max(peakNodes, res.PeakBufferedNodes)
			peakBytes = max(peakBytes, res.PeakBufferedBytes)
		}
	}
	elapsed := time.Since(start).Seconds()
	cpu, rt1 := cpuSeconds()-cpu0, readRuntime()
	heapPeak := sampler.stop()

	mibs := float64(processed) / mib
	noteLatency(out.notes, latencies)
	out.metrics = map[string]metric{
		"setup_s":             {setup, "s"},
		"throughput_mib_s":    {mibs / elapsed, "MiB/s"},
		"cpu_s_per_gib":       {cpu / (mibs / 1024), "s/GiB"},
		"allocs_per_mib":      {float64(rt1.allocs-rt0.allocs) / mibs, "count/MiB"},
		"heap_peak_mib":       {float64(heapPeak) / mib, "MiB"},
		"peak_buffered_nodes": {float64(peakNodes), "count"},
		"peak_buffered_bytes": {float64(peakBytes), "bytes"},
		"success_ratio":       {float64(out.attempted-out.failed) / float64(out.attempted), "ratio"},
	}
	return out, nil
}
