// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed window, checks every output against a reference
// computed by the DOM engine, and prints one JSON result line:
//
//	perfbench -workload xmark-batch -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of the workload
// (BENCHMARK.json, "end_to_end"); with -trace 1 it runs the layer
// survey instead and reports the per-layer metrics ("per_layer"). The
// two never share a run, so tracing cost cannot leak into the
// end-to-end numbers. perfbench/run.sh builds this command and gcxd
// from source and passes -bin and -out; NOTES.md explains the
// workloads, the metrics and the known failure of the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// run measures the workload for the given window with tracing off.
	run func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{name: "xmark-batch", run: func(c runConfig) (*outcome, error) { return runBatch(c, xmarkBatch) }},
	{name: "ndjson-batch", run: func(c runConfig) (*outcome, error) { return runBatch(c, ndjsonBatch) }},
	{name: "gcxd-mixed", run: runServe},
}

// runConfig carries the command line into a workload.
type runConfig struct {
	seed    int64
	window  time.Duration
	binDir  string         // holds the gcxd binary
	outDir  string         // span files go here
	setting map[string]any // filled by the workload: input sizes, rates
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured; main turns it into the result
// line.
type outcome struct {
	attempted int64
	failed    int64
	wrong     int64 // completed operations whose output hash mismatched
	metrics   map[string]metric
	// notes carries what a metric's value alone does not say, such as
	// which percentile a tail latency is and over how many samples.
	notes map[string]any
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run (xmark-batch, ndjson-batch, gcxd-mixed)")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced layer survey")
	binDir := flag.String("bin", "", "directory holding the gcxd binary (set by run.sh)")
	outDir := flag.String("out", "", "directory for span files (set by run.sh)")
	once := flag.String("compile-once", "", "compile the named batch workload's queries once, print the CPU and wall seconds it took and exit (set-up time is measured in such child processes)")
	flag.Parse()
	if *once != "" {
		return compileOnce(*once)
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || *trace < 0 || *trace > 1:
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	case *binDir == "" || *outDir == "":
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -out are required; run perfbench/run.sh")
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		binDir:  *binDir,
		outDir:  *outDir,
		setting: describeSetting(),
	}
	cfg.setting["workload"] = w.name
	cfg.setting["seed"] = *seed
	cfg.setting["seconds"] = *seconds
	cfg.setting["trace"] = *trace
	cfg.setting["rates_rps"] = map[string]any{"low": rateLow, "high": rateHigh, "ladder": rateLadder}

	var out *outcome
	var err error
	steal0, total0 := hostSteal()
	if *trace == 1 {
		out, err = runSurvey(cfg)
	} else {
		out, err = w.run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Time the hypervisor gave the machine's CPUs to someone else; it
	// shows up in every wall-time metric of the run.
	if steal1, total1 := hostSteal(); total1 > total0 {
		out.notes["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	info, _ := json.Marshal(map[string]any{"setting": cfg.setting, "notes": out.notes})
	fmt.Println(string(info))
	res, _ := json.Marshal(result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	fmt.Println(string(res))
	return 0
}
