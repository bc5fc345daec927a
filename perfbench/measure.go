package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"hash/maphash"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mib = 1 << 20

// hashSeed is shared by the reference and the timed outputs of one
// process; hashes are never compared across processes.
var hashSeed = maphash.MakeSeed()

// hashWriter hashes everything written to it and counts the bytes.
type hashWriter struct {
	h maphash.Hash
	n int64
}

func newHashWriter() *hashWriter {
	w := new(hashWriter)
	w.h.SetSeed(hashSeed)
	return w
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *hashWriter) Sum() uint64 { return w.h.Sum64() }

func (w *hashWriter) Reset() {
	w.h.Reset()
	w.n = 0
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with that percentile; xs is sorted in place. With
// ten samples or fewer it returns the maximum as the 100th percentile.
func tail(xs []float64) (value, pct float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return xs[n-1], 100
	}
	k := n - 11
	return xs[k], 100 * float64(k+1) / float64(n)
}

// noteLatency records the median and tail of per-operation latencies
// (ms) in a run's notes, with the tail's percentile and sample count.
// Latency is a note, not a metric, of the end-to-end run: on a host
// whose hypervisor steals a varying share of the CPUs it moves far more
// between runs than any bound allows (NOTES.md, Noise).
func noteLatency(notes map[string]any, ms []float64) {
	p50 := median(ms)
	t, pct := tail(ms)
	notes["latency_ms"] = map[string]any{"p50": p50, "tail": t, "tail_percentile": pct, "samples": len(ms)}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// runtimeSample reads the runtime/metrics counters the batch workloads
// report.
type runtimeSample struct {
	allocs   uint64  // heap objects allocated so far
	gcCycles uint64  // completed GC cycles
	gcCPU    float64 // CPU seconds spent in GC
}

var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		samples[i].Name = k
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	var gcCPU float64
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		gcCPU = samples[2].Value.Float64()
	}
	return runtimeSample{allocs: u(0), gcCycles: u(1), gcCPU: gcCPU}
}

// heapSampler records the peak of the Go heap's object bytes, sampled
// every few milliseconds from its own goroutine until stop returns.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-t.C:
			case <-s.stopc:
				s.done <- peak
				return
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *heapSampler) stop() uint64 {
	close(s.stopc)
	return <-s.done
}

// hostSteal returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it cannot be read).
func hostSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// describeSetting records the machine and source the numbers came
// from.
func describeSetting() map[string]any {
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree; the benchmark usually runs from an export,
// where source_sha256 identifies the code instead.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root (skipping
// dot and underscore directories), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && path != filepath.Join(root, "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
