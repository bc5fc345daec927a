package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gcx"
	"gcx/internal/gcxd"
	"gcx/internal/xmark"
)

// Open-loop arrival rates of the gcxd mix, in requests/s. Low sits well
// under what two connections sustain, so latency is service time; high
// keeps the server busy enough that queueing shows. The end-to-end run
// uses the high rate; the layer survey measures latency at both.
const (
	rateLow  = 15.0
	rateHigh = 30.0
)

// rateLadder is the fixed ladder of the layer survey's max_rps search.
var rateLadder = []float64{15, 30, 45, 60, 90}

const (
	// serveConns caps the generator's concurrent connections, so the
	// client never outnumbers the cores of a two-CPU host; every result
	// records nproc next to it.
	serveConns = 2
	// latencyLimitMs is the tail-latency limit of the max_rps search.
	latencyLimitMs = 250.0
	// setupStarts is how often set-up starts gcxd; set-up time is the
	// median start. A start takes a few milliseconds, so one start is at
	// the mercy of the scheduler and it takes many for a steady median.
	setupStarts = 21
	// readyPoll is the backoff between readiness probes of a starting
	// gcxd, well under the start time it is part of.
	readyPoll = 100 * time.Microsecond
	// probeRequests is how often the layer survey sends each shape that
	// hits the known body-close defect. About one in twenty of them
	// failed on the machine in NOTES.md, so the survey sees the defect
	// while it is there.
	probeRequests = 40
)

// bodySizes fall on both sides of gcxd's 1 MiB bytes-path limit, so the
// mix runs the zero-copy bytes path and the streamed reader path. Three
// sizes in equal shares put the median latency inside the middle size's
// cluster instead of on the edge between two.
var bodySizes = []int64{512 << 10, 3 << 19, 3 << 20}

// preHeaderBuffer is how many response bytes Go's HTTP/1 server holds
// before it sends the header (net/http's bufferBeforeChunkingSize).
const preHeaderBuffer = 2 << 10

// serveCase is one request shape of the gcxd mix.
type serveCase struct {
	query  string
	text   string
	ndjson bool
	size   int // index into bodySizes
	shards int
	body   []byte
	ref    uint64 // DOM reference hash of the response body
	refLen int64  // length of the reference response body
}

// hitsBodyClose reports whether a request meets gcxd's known body-close
// defect (NOTES.md): gcxd reads a reader-path body while it writes the
// response, and once the response outgrows preHeaderBuffer, Go's server
// discards and closes the body if less than 256 KiB of it is unread. A
// sequential run writes early, while more than that is unread; a sharded
// run's splitter reads ahead of the ordered merge, so whether the cut
// lands inside the body depends on scheduling.
func hitsBodyClose(c serveCase) bool {
	return c.shards > 1 && int64(len(c.body)) > gcxd.DefaultBytesBodyLimit && c.refLen > preHeaderBuffer
}

// serveInputs builds the request shapes: XMark Q1, Q6 and Q13 plus NDJSON
// J1, each on a body of every size, each unsharded and with shards=2.
// The shapes that hit the known body-close defect fail at random, so
// they go to probe, which the layer survey drives apart; the other 20
// are the mix, in equal shares.
func serveInputs(seed int64) (mix, probe []serveCase, err error) {
	type body struct {
		ndjson bool
		size   int
	}
	bodies := map[body][]byte{}
	for _, ndjson := range []bool{false, true} {
		gen := xmark.Generate
		if ndjson {
			gen = xmark.GenerateNDJSON
		}
		for size, n := range bodySizes {
			var buf bytes.Buffer
			if _, err := gen(&buf, xmark.Config{TargetBytes: n, Seed: seed}); err != nil {
				return nil, nil, fmt.Errorf("generating gcxd input: %w", err)
			}
			bodies[body{ndjson, size}] = buf.Bytes()
		}
	}
	for _, id := range []string{"Q1", "Q6", "Q13", "J1"} {
		ndjson := id == "J1"
		text, format := xmark.Queries[id].Text, gcx.FormatXML
		if ndjson {
			text, format = xmark.NDJSONQueries[id].Text, gcx.FormatNDJSON
		}
		q, err := gcx.Compile(text)
		if err != nil {
			return nil, nil, fmt.Errorf("compiling %s: %w", id, err)
		}
		for size := range bodySizes {
			b := bodies[body{ndjson, size}]
			refs, lens, err := references([]*gcx.Query{q}, b, format)
			if err != nil {
				return nil, nil, err
			}
			for _, shards := range []int{1, 2} {
				c := serveCase{query: id, text: text, ndjson: ndjson, size: size, shards: shards, body: b, ref: refs[0], refLen: lens[0]}
				if hitsBodyClose(c) {
					probe = append(probe, c)
				} else {
					mix = append(mix, c)
				}
			}
		}
	}
	return mix, probe, nil
}

// schedule returns n case indexes: seeded permutations of all cases
// back to back, so every case gets an equal share of any window.
func schedule(seed int64, ncases, n int) []int {
	r := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n+ncases)
	for len(out) < n {
		out = append(out, r.Perm(ncases)...)
	}
	return out[:n]
}

// server is one gcxd process started from the built binary.
type server struct {
	cmd   *exec.Cmd
	base  string // query listener
	admin string // pprof listener
	logs  *tailBuffer
	exit  chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches gcxd as operators run it — its own process, a
// TCP listener, JSON request logs — and waits until /healthz answers.
func startServer(binDir string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	admin, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		base:  "http://" + addr,
		admin: "http://" + admin,
		logs:  &tailBuffer{max: 64 << 10},
		exit:  make(chan error, 1),
	}
	s.cmd = exec.Command(filepath.Join(binDir, "gcxd"), "-addr", addr, "-pprof-addr", admin, "-log", "json")
	s.cmd.Stdout = s.logs
	s.cmd.Stderr = s.logs
	// gcxd dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gcxd: %w", err)
	}
	go func() { s.exit <- s.cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for !s.ready(addr) {
		select {
		case err := <-s.exit:
			s.exit <- err
			return nil, fmt.Errorf("gcxd exited during start (%v): %s", err, s.logs.String())
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("gcxd not ready after 20s: %s", s.logs.String())
		}
	}
	return s, nil
}

// ready reports whether gcxd accepts connections on addr and its
// /healthz answers 200. The cheap dial comes first, so polling before
// the listener exists costs the starting process next to nothing.
func (s *server) ready(addr string) bool {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	conn.Close()
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, and SIGKILL if gcxd has not drained within ten
// seconds, and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is fine
	select {
	case <-s.exit:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exit
	}
}

// queryURL is the POST /query URL of a case.
func (s *server) queryURL(c serveCase) string {
	v := url.Values{"query": {c.text}}
	if c.shards > 1 {
		v.Set("shards", strconv.Itoa(c.shards))
	}
	if c.ndjson {
		v.Set("format", "ndjson")
	}
	return s.base + "/query?" + v.Encode()
}

// warm compiles each query of the mix into gcxd's cache with one tiny
// request.
func (s *server) warm(cases []serveCase) error {
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.query] {
			continue
		}
		seen[c.query] = true
		body := "<site/>"
		if c.ndjson {
			body = "{}\n"
		}
		resp, err := http.Post(s.queryURL(c), "application/octet-stream", strings.NewReader(body))
		if err != nil {
			return fmt.Errorf("warming %s: %w", c.query, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warming %s: status %d, %v", c.query, resp.StatusCode, err)
		}
	}
	return nil
}

// cpuSeconds returns gcxd's user+system CPU seconds from /proc, in
// clock ticks of 10 ms.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (utime + stime) / clockTicks, nil
}

// threadCPUSeconds sums the time every thread of gcxd has run on a CPU,
// in nanoseconds from /proc/<pid>/task/*/schedstat: fine enough for a
// start of a few milliseconds, where cpuSeconds' ticks are not. It
// leaves out time the hypervisor stole.
func (s *server) threadCPUSeconds() (float64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for gcxd's threads (%v)", err)
	}
	var ns float64
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		var v float64
		if _, err := fmt.Sscan(string(raw), &v); err != nil {
			return 0, fmt.Errorf("reading %s: %w", p, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// rssPeakMiB is gcxd's resident-set high-water mark (VmHWM).
func (s *server) rssPeakMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// mallocs reads gcxd's cumulative heap allocation count from the pprof
// heap profile's MemStats footer.
func (s *server) mallocs() (uint64, error) {
	resp, err := http.Get(s.admin + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no Mallocs line in the heap profile")
}

// get fetches a GET endpoint's body.
func (s *server) get(path string) ([]byte, error) {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// tailBuffer keeps the last max bytes written to it; gcxd's logs go
// here so a failed start can be explained.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// request is one request of an open-loop run and what became of it.
type request struct {
	caseIdx              int
	due, sent, done      time.Time
	failed, wrong        bool
	errMsg               string
	peakNodes, peakBytes int64
	// upload and ttfb are the nanoseconds from sending to the last
	// request byte written and to the first response byte (0 if never).
	// The transport reports them from its own goroutines.
	upload, ttfb atomic.Int64
}

// loadRun is the record of one open-loop run.
type loadRun struct {
	reqs       []request
	lagMs      []float64 // how late the generator sent each request
	backlogMax int
	// backlogGrew reports that the queue of due-but-unsent requests was
	// longer in the run's second half than its first.
	backlogGrew bool
	bodyBytes   int64
}

// drive runs one open-loop window: requests are due at fixed intervals
// of 1/rate regardless of completions and wait for one of serveConns
// connections, so a slow server shows up as latency measured from the
// due time.
func drive(s *server, cases []serveCase, order []int, rate float64) *loadRun {
	n := len(order)
	run := &loadRun{reqs: make([]request, n), lagMs: make([]float64, n)}
	// Requests that outlive the window by a minute are abandoned as
	// failed, so a stalled server cannot hold the benchmark past its
	// time limit.
	window := time.Duration(float64(n) / rate * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), window+time.Minute)
	defer cancel()
	queue := make(chan int, n) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}}
			defer client.CloseIdleConnections()
			for i := range queue {
				do(ctx, client, s, cases, &run.reqs[i])
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	backlogHalf := [2]int{}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		run.reqs[i].caseIdx = order[i]
		run.reqs[i].due = due
		run.bodyBytes += int64(len(cases[order[i]].body))
		run.lagMs[i] = float64(time.Since(due)) / 1e6
		queue <- i
		b := len(queue)
		run.backlogMax = max(run.backlogMax, b)
		half := 2 * i / n
		backlogHalf[half] = max(backlogHalf[half], b)
	}
	close(queue)
	wg.Wait()
	run.backlogGrew = backlogHalf[1] > backlogHalf[0]+serveConns
	return run
}

// do sends one request and checks its response against the reference.
func do(ctx context.Context, client *http.Client, s *server, cases []serveCase, r *request) {
	c := cases[r.caseIdx]
	defer func() { r.done = time.Now() }()
	fail := func(msg string) {
		r.failed = true
		r.errMsg = msg
	}
	ct := &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { r.upload.Store(int64(time.Since(r.sent))) },
		GotFirstResponseByte: func() { r.ttfb.Store(int64(time.Since(r.sent))) },
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, ct), http.MethodPost, s.queryURL(c), bytes.NewReader(c.body))
	if err != nil {
		fail(err.Error())
		return
	}
	r.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		fail(err.Error())
		return
	}
	hw := newHashWriter()
	_, err = io.Copy(hw, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		fail(err.Error())
	case resp.StatusCode != http.StatusOK:
		fail(resp.Status)
	case resp.Trailer.Get("X-Gcx-Error") != "":
		fail(resp.Trailer.Get("X-Gcx-Error"))
	case hw.Sum() != c.ref:
		fail("output differs from the DOM reference")
		r.wrong = true
	default:
		r.peakNodes, _ = strconv.ParseInt(resp.Trailer.Get("X-Gcx-Peak-Nodes"), 10, 64)
		r.peakBytes, _ = strconv.ParseInt(resp.Trailer.Get("X-Gcx-Peak-Bytes"), 10, 64)
	}
}

// latencies returns each request's time from due to last response
// byte in ms; failed requests count as infinitely late when failInf is
// set.
func (run *loadRun) latencies(failInf bool) []float64 {
	out := make([]float64, len(run.reqs))
	for i := range run.reqs {
		r := &run.reqs[i]
		out[i] = float64(r.done.Sub(r.due)) / 1e6
		if failInf && r.failed {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// failures summarizes failed requests by case and message.
func (run *loadRun) failures(cases []serveCase) map[string]int {
	out := map[string]int{}
	for i := range run.reqs {
		if r := &run.reqs[i]; r.failed {
			c := cases[r.caseIdx]
			msg := r.errMsg
			if len(msg) > 120 {
				msg = msg[:120]
			}
			out[fmt.Sprintf("%s/%dKiB/shards=%d: %s", c.query, bodySizes[c.size]>>10, c.shards, msg)]++
		}
	}
	return out
}

// startMeasured starts gcxd setupStarts times — each until ready with
// every query of the mix compiled — and stops all but the last. It
// returns that one with the medians of the CPU time gcxd spent getting
// ready and of the wall time it took, in seconds.
func startMeasured(binDir string, cases []serveCase) (s *server, cpu, wall float64, err error) {
	cpus := make([]float64, 0, setupStarts)
	walls := make([]float64, 0, setupStarts)
	for i := 0; i < setupStarts; i++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		if s, err = startServer(binDir); err != nil {
			return nil, 0, 0, err
		}
		if err = s.warm(cases); err == nil {
			walls = append(walls, time.Since(start).Seconds())
			var c float64
			c, err = s.threadCPUSeconds()
			cpus = append(cpus, c)
		}
		if err != nil {
			s.stop()
			return nil, 0, 0, err
		}
	}
	return s, median(cpus), median(walls), nil
}

// checkWarm sends every case once outside the window: it fills pools
// and connections and fails fast if the server cannot answer the mix.
func checkWarm(s *server, cases []serveCase) error {
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	run := drive(s, cases, order, 1000)
	for i := range run.reqs {
		if r := &run.reqs[i]; r.wrong {
			c := cases[r.caseIdx]
			return fmt.Errorf("warm-up: %s (shards=%d, %d bytes) differs from the DOM reference", c.query, c.shards, len(c.body))
		}
	}
	return nil
}

func runServe(cfg runConfig) (*outcome, error) {
	cases, _, err := serveInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	cfg.setting["input_bytes"] = bodySizes
	cfg.setting["rate_rps"] = rateHigh
	cfg.setting["connections"] = serveConns
	s, setup, setupWall, err := startMeasured(cfg.binDir, cases)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if err := checkWarm(s, cases); err != nil {
		return nil, err
	}
	n := int(rateHigh * cfg.window.Seconds())
	order := schedule(cfg.seed, len(cases), n)

	cpu0, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m0, err := s.mallocs()
	if err != nil {
		return nil, err
	}
	run := drive(s, cases, order, rateHigh)
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m1, err := s.mallocs()
	if err != nil {
		return nil, err
	}
	rss, err := s.rssPeakMiB()
	if err != nil {
		return nil, err
	}

	out := &outcome{notes: map[string]any{"setup_wall_s": setupWall}}
	var peakNodes, peakBytes int64
	for i := range run.reqs {
		r := &run.reqs[i]
		out.attempted++
		if r.failed {
			out.failed++
		}
		if r.wrong {
			out.wrong++
		}
		peakNodes = max(peakNodes, r.peakNodes)
		peakBytes = max(peakBytes, r.peakBytes)
	}
	noteLatency(out.notes, run.latencies(false))
	lagTail, _ := tail(run.lagMs)
	out.notes["load_lag_ms_tail"] = lagTail
	out.notes["backlog_max"] = run.backlogMax
	if f := run.failures(cases); len(f) > 0 {
		out.notes["failures"] = f
	}
	mibs := float64(run.bodyBytes) / mib
	gib := mibs / 1024
	// The open-loop generator fixes the request rate, so body MiB over
	// wall time would measure the generator, and gcxd's own request time
	// follows the share of CPU the host steals. Throughput is therefore
	// per CPU second gcxd spent: the rate one busy core of gcxd streams.
	cpu := cpu1 - cpu0
	out.metrics = map[string]metric{
		"setup_s":             {setup, "s"},
		"throughput_mib_s":    {mibs / cpu, "MiB/s"},
		"cpu_s_per_gib":       {cpu / gib, "s/GiB"},
		"allocs_per_mib":      {float64(m1-m0) / mibs, "count/MiB"},
		"heap_peak_mib":       {rss, "MiB"},
		"peak_buffered_nodes": {float64(peakNodes), "count"},
		"peak_buffered_bytes": {float64(peakBytes), "bytes"},
		"success_ratio":       {float64(out.attempted-out.failed) / float64(out.attempted), "ratio"},
	}
	return out, nil
}

// scrape is the part of gcxd's /stats and /metrics the survey reports.
type scrape struct {
	stats map[string]float64
	// server-side request seconds and counts by input path
	pathSum   map[string]float64
	pathCount map[string]float64
}

func (s *server) scrape() (*scrape, error) {
	raw, err := s.get("/stats")
	if err != nil {
		return nil, err
	}
	sc := &scrape{pathSum: map[string]float64{}, pathCount: map[string]float64{}}
	if err := json.Unmarshal(raw, &sc.stats); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	raw, err = s.get("/metrics")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var dst map[string]float64
		switch {
		case strings.HasPrefix(line, "gcx_request_duration_seconds_sum{"):
			dst = sc.pathSum
		case strings.HasPrefix(line, "gcx_request_duration_seconds_count{"):
			dst = sc.pathCount
		default:
			continue
		}
		_, rest, _ := strings.Cut(line, `input_path="`)
		path, _, _ := strings.Cut(rest, `"`)
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		dst[path] += v
	}
	return sc, nil
}
