package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gcx"
	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/core"
	"gcx/internal/cursor"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/projection"
)

// The layer survey is the traced run. Whichever workload names it, it
// measures every layer, so every traced run reports the same metrics:
//
//   - for the XMark document and for the NDJSON log, the offline layer
//     ladder — cursor scan, skip scan, tokenize, tokenize+project, the
//     engine to a discarding sink, Query.ExecuteBytes — where the gap
//     between adjacent rungs is the cost of one layer;
//   - the same query mixes run through the engine with the event
//     source and sink wrapped in timing spans, giving each layer's
//     busy and self time and its counts;
//   - gcxd at the low and the high arrival rate, timed from the client
//     and scraped from /stats and /metrics, then a short rate ladder for
//     max_rps.
//
// Spans are kept in memory and written to <out>/spans when the run
// ends. The untraced rungs double as the baseline of the tracing
// overhead.

// span is one timed interval at a layer boundary. A span of many
// calls — the per-token source and sink calls — is recorded once per
// execution: Start and End bound the calls, Busy sums them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`
	Req    int64  `json:"req"` // execution or request the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its id.
func (t *tracer) open(layer string, parent int, req int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Req: req, Start: t.now(), Calls: 1})
	return id
}

// close ends a span.
func (t *tracer) close(id int) {
	s := &t.spans[id]
	s.End = t.now()
	s.Busy = s.End - s.Start
}

// add records a finished span given its bounds, busy time and calls.
func (t *tracer) add(layer string, parent int, req, start, end, busy, calls int64) {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Layer: layer, Req: req, Start: start, End: end, Busy: busy, Calls: calls})
}

// self returns span id's busy time minus the time its child spans
// cover. Children never overlap: every traced layer runs on the one
// goroutine that called it, and children are recorded after their
// parent opens.
func (t *tracer) self(id int) int64 {
	busy := t.spans[id].Busy
	for _, s := range t.spans[id+1:] {
		if s.Parent == id {
			busy -= s.Busy
		}
	}
	return busy
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callTimer accumulates one kind of per-token call.
type callTimer struct {
	first, last, busy, calls int64
}

func (c *callTimer) done(t *tracer, start int64) {
	end := t.now()
	if c.calls == 0 {
		c.first = start
	}
	c.last = end
	c.busy += end - start
	c.calls++
}

// flush records the accumulated calls as one span under parent.
func (c *callTimer) flush(t *tracer, layer string, parent int, req int64) {
	if c.calls > 0 {
		t.add(layer, parent, req, c.first, c.last, c.busy, c.calls)
	}
	*c = callTimer{}
}

// tracedSource times every call into a tokenizer through its
// event.Source interface.
type tracedSource struct {
	event.Source
	t          *tracer
	next, skip callTimer
}

func (s *tracedSource) Next() (event.Token, error) {
	start := s.t.now()
	tok, err := s.Source.Next()
	s.next.done(s.t, start)
	return tok, err
}

func (s *tracedSource) SkipSubtree() error {
	start := s.t.now()
	err := s.Source.SkipSubtree()
	s.skip.done(s.t, start)
	return err
}

// tracedSink times every call into a serializer through its event.Sink
// interface.
type tracedSink struct {
	event.Sink
	t    *tracer
	call callTimer
}

func (s *tracedSink) StartElement(name string, attrs []event.Attr) {
	start := s.t.now()
	s.Sink.StartElement(name, attrs)
	s.call.done(s.t, start)
}

func (s *tracedSink) EndElement(name string) {
	start := s.t.now()
	s.Sink.EndElement(name)
	s.call.done(s.t, start)
}

func (s *tracedSink) Text(text string) {
	start := s.t.now()
	s.Sink.Text(text)
	s.call.done(s.t, start)
}

func (s *tracedSink) Flush() error {
	start := s.t.now()
	err := s.Sink.Flush()
	s.call.done(s.t, start)
	return err
}

// survey accumulates the traced run's outcome.
type survey struct {
	cfg runConfig
	t   *tracer
	out *outcome
	req int64 // execution/request ids for spans
}

func (sv *survey) set(name string, v float64, unit string) {
	sv.out.metrics[name] = metric{v, unit}
}

// check counts one checked operation.
func (sv *survey) check(err error, got, want uint64) {
	sv.out.attempted++
	switch {
	case err != nil:
		sv.out.failed++
	case got != want:
		sv.out.failed++
		sv.out.wrong++
	}
}

func runSurvey(cfg runConfig) (*outcome, error) {
	sv := &survey{
		cfg: cfg,
		t:   &tracer{t0: time.Now()},
		out: &outcome{metrics: map[string]metric{}, notes: map[string]any{}},
	}
	w := cfg.window
	untracedXML, tracedXML, err := sv.batch(xmarkBatch, "xmltok", "xml", w*35/100)
	if err != nil {
		return nil, err
	}
	if _, _, err := sv.batch(ndjsonBatch, "jsontok", "ndjson", w*25/100); err != nil {
		return nil, err
	}
	if err := sv.serve(w * 40 / 100); err != nil {
		return nil, err
	}
	// The traced engine path over the same engine path untraced, both on
	// the XMark mix.
	sv.set("trace.overhead_ratio", tracedXML/untracedXML, "ratio")
	path := filepath.Join(cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.setting["workload"], cfg.seed))
	if err := sv.t.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	sv.out.notes["spans"] = map[string]any{"file": path, "count": len(sv.t.spans)}
	return sv.out, nil
}

// coreFormat maps the public format onto the front-end constructors'.
func coreFormat(f gcx.Format) core.Format {
	if f == gcx.FormatNDJSON {
		return core.FormatNDJSON
	}
	return core.FormatXML
}

// rung times fn, which processes n bytes per call, repeatedly within
// budget (at least three times) and returns the median MiB/s. It
// starts from a collected heap, so no rung pays for its predecessor's
// garbage.
func rung(budget time.Duration, n int64, fn func() error) (float64, error) {
	runtime.GC()
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < budget {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		rates = append(rates, float64(n)/mib/time.Since(t).Seconds())
	}
	return median(rates), nil
}

// surveyInput is one batch workload's document, query mix and
// references, as the survey's sections need them.
type surveyInput struct {
	spec        batchSpec
	tok, suffix string // tokenizer layer name and metric suffix
	cf          core.Format
	doc         []byte
	qs          []*gcx.Query
	plans       []*analysis.Plan
	refs        []uint64
}

// mixMiB is the input of one pass over the mix.
func (in *surveyInput) mixMiB() float64 {
	return float64(len(in.doc)*len(in.qs)) / mib
}

// batch surveys one batch workload's layers: compile time, the ladder
// and the traced mix. It returns the MiB/s of the mix through the
// engine, untraced (the ladder's engine rung) and traced.
func (sv *survey) batch(spec batchSpec, tok, suffix string, budget time.Duration) (untraced, traced float64, err error) {
	in := &surveyInput{spec: spec, tok: tok, suffix: suffix, cf: coreFormat(spec.format)}
	if in.doc, err = spec.input(sv.cfg.seed); err != nil {
		return 0, 0, err
	}
	sv.cfg.setting[spec.name+"_input_bytes"] = len(in.doc)
	texts := spec.texts()
	compile, _, err := coldCompile(spec)
	if err != nil {
		return 0, 0, err
	}
	sv.set("analysis.compile_ms."+suffix, compile*1e3, "ms")
	if in.qs, err = compileMix(texts); err != nil {
		return 0, 0, err
	}
	in.plans = make([]*analysis.Plan, len(texts))
	for i, src := range texts {
		if in.plans[i], err = core.Compile(src); err != nil {
			return 0, 0, err
		}
	}
	if in.refs, _, err = references(in.qs, in.doc, spec.format); err != nil {
		return 0, 0, err
	}
	if untraced, err = sv.ladder(in, budget*7/12); err != nil {
		return 0, 0, err
	}
	if traced, err = sv.traced(in, budget*5/12); err != nil {
		return 0, 0, err
	}
	return untraced, traced, nil
}

// ladder measures the rungs bottom up and returns the engine rung's
// MiB/s, engine.Run over the mix to a discarding sink.
func (sv *survey) ladder(in *surveyInput, budget time.Duration) (float64, error) {
	cf, doc, plans, qs, suffix, tok := in.cf, in.doc, in.plans, in.qs, in.suffix, in.tok
	size := int64(len(doc))
	mix := size * int64(len(qs))
	step := budget / 9
	delim := byte('<')
	if cf == core.FormatNDJSON {
		delim = '\n'
	}
	scan, err := rung(step, size, func() error {
		c := cursor.NewBytes(doc)
		for {
			if _, err := c.SkipPast(delim); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	})
	if err != nil {
		return 0, err
	}
	skipscan, err := rung(step, size, func() error {
		src, err := core.NewSourceBytes(cf, doc)
		if err != nil {
			return err
		}
		defer src.Release()
		for {
			t, err := src.Next()
			if err != nil {
				return err
			}
			if t.Kind == event.StartElement {
				break
			}
		}
		if err := src.SkipSubtree(); err != nil {
			return err
		}
		if _, err := src.Next(); err != io.EOF {
			return fmt.Errorf("skip scan: want end of input after the root, got %v", err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	tokenize, err := rung(step, size, func() error {
		src, err := core.NewSourceBytes(cf, doc)
		if err != nil {
			return err
		}
		defer src.Release()
		for {
			if _, err := src.Next(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	})
	if err != nil {
		return 0, err
	}
	project, err := rung(step*2, mix, func() error {
		for _, plan := range plans {
			src, err := core.NewSourceBytes(cf, doc)
			if err != nil {
				return err
			}
			buf := buffer.New()
			p := projection.New(src, buf, plan.RolePaths())
			p.EnableSkipping(plan.Automaton)
			err = p.Run()
			buf.Release()
			src.Release()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	eng, err := rung(step*2, mix, func() error {
		for _, plan := range plans {
			if _, err := runEngine(plan, cf, doc, io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	opts := gcx.Options{Format: in.spec.format}
	var rt0 runtimeSample
	passes := 0
	exec, err := rung(step*2, mix, func() error {
		if passes == 0 {
			rt0 = readRuntime() // after rung's own collection
		}
		passes++
		for _, q := range qs {
			if _, err := q.ExecuteBytes(doc, io.Discard, opts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	rt1 := readRuntime()
	sv.set("cursor.scan_mib_s."+suffix, scan, "MiB/s")
	sv.set(tok+".skipscan_mib_s", skipscan, "MiB/s")
	sv.set(tok+".tokenize_mib_s", tokenize, "MiB/s")
	sv.set("projection.mib_s."+suffix, project, "MiB/s")
	sv.set("engine.mib_s."+suffix, eng, "MiB/s")
	sv.set("gcx.mib_s."+suffix, exec, "MiB/s")
	mixMiB := in.mixMiB()
	sv.set("gcx.overhead_s."+suffix, mixMiB/exec-mixMiB/eng, "s")
	sv.set("runtime.gc_cycles."+suffix, float64(rt1.gcCycles-rt0.gcCycles)/float64(passes), "count")
	sv.set("runtime.gc_cpu_s."+suffix, (rt1.gcCPU-rt0.gcCPU)/float64(passes), "s")
	return eng, nil
}

// traced runs passes over the mix with every layer boundary traced
// until budget is spent (at least three passes), and returns the
// traced engine path's MiB/s.
func (sv *survey) traced(in *surveyInput, budget time.Duration) (float64, error) {
	tok, suffix := in.tok, in.suffix
	mix := int64(len(in.doc) * len(in.qs))
	var ps []tracedPass
	hw := newHashWriter()
	deadline := time.Now().Add(budget)
	for len(ps) < 3 || time.Now().Before(deadline) {
		var p tracedPass
		for k := range in.plans {
			if err := sv.tracedExecution(&p, in, k, hw); err != nil {
				return 0, fmt.Errorf("traced %s: %w", in.spec.queryIDs[k], err)
			}
		}
		ps = append(ps, p)
	}
	med := func(f func(tracedPass) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	last := ps[len(ps)-1] // counts repeat exactly from pass to pass
	sv.set(tok+".next_s", med(func(p tracedPass) float64 { return p.next }), "s")
	sv.set(tok+".next_calls", float64(last.nextCalls), "count")
	sv.set(tok+".skip_s", med(func(p tracedPass) float64 { return p.skip }), "s")
	sv.set(tok+".skip_calls", float64(last.skipCalls), "count")
	sv.set(tok+".bytes_skipped", float64(last.skipped), "bytes")
	sv.set(tok+".skip_ratio", float64(last.skipped)/float64(mix), "ratio")
	sv.set(tok+".sink_s", med(func(p tracedPass) float64 { return p.sink }), "s")
	sv.set(tok+".out_bytes", float64(last.out), "bytes")
	sv.set("engine.self_s."+suffix, med(func(p tracedPass) float64 { return p.engineSelf }), "s")
	sv.set("engine.tokens."+suffix, float64(last.tokens), "count")
	sv.set("projection.self_s."+suffix, med(func(p tracedPass) float64 { return p.projSelf }), "s")
	sv.set("buffer.appended."+suffix, float64(last.appended), "count")
	sv.set("buffer.purged."+suffix, float64(last.purged), "count")
	sv.set("buffer.purge_ratio."+suffix, float64(last.purged)/math.Max(float64(last.appended), 1), "ratio")
	if in.cf == core.FormatXML {
		sv.set("join.build_tuples", float64(last.buildTuples), "count")
		sv.set("join.probe_tuples", float64(last.probeTuples), "count")
		sv.set("join.matches", float64(last.matches), "count")
		sv.set("join.build_s", med(func(p tracedPass) float64 { return p.phase["join_build"] }), "s")
		sv.set("join.probe_s", med(func(p tracedPass) float64 { return p.phase["join_probe"] }), "s")
		sv.set("shard.split_s", med(func(p tracedPass) float64 { return p.phase["split"] }), "s")
		sv.set("shard.merge_s", med(func(p tracedPass) float64 { return p.phase["merge"] }), "s")
		sv.set("shard.chunks", float64(last.chunks), "count")
	}
	return in.mixMiB() / med(func(p tracedPass) float64 { return p.engineBusy }), nil
}

// tracedPass sums one traced pass over a query mix: seconds of busy
// and self time per layer, and counts.
type tracedPass struct {
	next, skip, sink, engineBusy, engineSelf, projSelf float64
	// phase holds the program's own trace phases: join_build and
	// join_probe of the join query, split and merge of two-shard runs.
	phase map[string]float64

	nextCalls, skipCalls, skipped, out, tokens, appended, purged int64
	buildTuples, probeTuples, matches, chunks                    int64
}

// tracedExecution runs one query of a traced pass: the engine over a
// traced source and sink, the preprojector alone over a traced source,
// and Query.ExecuteBytes with the program's phase trace on — sequential
// for a join query, with two shards for XML. Every output is checked.
func (sv *survey) tracedExecution(p *tracedPass, in *surveyInput, k int, hw *hashWriter) error {
	tok, cf, plan, q, doc, ref := in.tok, in.cf, in.plans[k], in.qs[k], in.doc, in.refs[k]
	sv.req++
	root := sv.t.open("execute", -1, sv.req)
	defer sv.t.close(root)

	src, err := core.NewSourceBytes(cf, doc)
	if err != nil {
		return err
	}
	sink, err := core.NewSink(cf, hw)
	if err != nil {
		src.Release()
		return err
	}
	hw.Reset()
	ts := &tracedSource{Source: src, t: sv.t}
	tk := &tracedSink{Sink: sink, t: sv.t}
	id := sv.t.open("engine", root, sv.req)
	e := engine.New(plan, ts, tk, engine.Config{})
	res, err := e.Run()
	sv.t.close(id)
	skipped := src.SkipStats().BytesSkipped
	e.Release()
	sv.check(err, hw.Sum(), ref)
	if err != nil {
		return err
	}
	p.nextCalls += ts.next.calls
	p.skipCalls += ts.skip.calls
	p.next += float64(ts.next.busy) / 1e9
	p.skip += float64(ts.skip.busy) / 1e9
	p.sink += float64(tk.call.busy) / 1e9
	ts.next.flush(sv.t, tok+".next", id, sv.req)
	ts.skip.flush(sv.t, tok+".skip", id, sv.req)
	tk.call.flush(sv.t, tok+".sink", id, sv.req)
	p.engineBusy += float64(sv.t.spans[id].Busy) / 1e9
	p.engineSelf += float64(sv.t.self(id)) / 1e9
	p.skipped += skipped
	p.out += hw.n
	p.tokens += res.TokensProcessed
	p.appended += res.TotalAppended
	p.purged += res.TotalPurged
	p.buildTuples += res.JoinBuildTuples
	p.probeTuples += res.JoinProbeTuples
	p.matches += res.JoinMatches

	src, err = core.NewSourceBytes(cf, doc)
	if err != nil {
		return err
	}
	ts = &tracedSource{Source: src, t: sv.t}
	buf := buffer.New()
	id = sv.t.open("projection", root, sv.req)
	pp := projection.New(ts, buf, plan.RolePaths())
	pp.EnableSkipping(plan.Automaton)
	err = pp.Run()
	sv.t.close(id)
	buf.Release()
	src.Release()
	if err != nil {
		return err
	}
	ts.next.flush(sv.t, tok+".next", id, sv.req)
	ts.skip.flush(sv.t, tok+".skip", id, sv.req)
	p.projSelf += float64(sv.t.self(id)) / 1e9

	var shardings []int
	if res.JoinBuildTuples > 0 {
		shardings = append(shardings, 1)
	}
	if cf == core.FormatXML {
		shardings = append(shardings, 2)
	}
	for _, shards := range shardings {
		o := gcx.Options{Format: in.spec.format, EnableTrace: true, Shards: shards}
		hw.Reset()
		id := sv.t.open("gcx.execute", root, sv.req)
		r, err := q.ExecuteBytes(doc, hw, o)
		sv.t.close(id)
		sv.check(err, hw.Sum(), ref)
		if err != nil {
			return err
		}
		if shards > 1 {
			p.chunks += int64(r.Chunks)
		}
		// Result.Trace gives durations only; the phase spans are laid
		// end to end from their execution's start.
		at := sv.t.spans[id].Start
		for _, ph := range r.Trace {
			switch {
			case shards == 1 && (ph.Phase == "join_build" || ph.Phase == "join_probe"),
				shards > 1 && (ph.Phase == "split" || ph.Phase == "merge"):
				if p.phase == nil {
					p.phase = map[string]float64{}
				}
				p.phase[ph.Phase] += ph.Duration().Seconds()
				sv.t.add("phase."+ph.Phase, id, sv.req, at, at+ph.Nanos, ph.Nanos, 1)
				at += ph.Nanos
			}
		}
	}
	return nil
}

// runEngine runs plan over doc through the engine, as internal/core
// does, writing to w.
func runEngine(plan *analysis.Plan, cf core.Format, doc []byte, w io.Writer) (*engine.Result, error) {
	src, err := core.NewSourceBytes(cf, doc)
	if err != nil {
		return nil, err
	}
	sink, err := core.NewSink(cf, w)
	if err != nil {
		src.Release()
		return nil, err
	}
	e := engine.New(plan, src, sink, engine.Config{})
	res, err := e.Run()
	e.Release()
	return res, err
}

// serve surveys gcxd at the low and the high rate, then climbs the rate
// ladder.
func (sv *survey) serve(budget time.Duration) error {
	cases, probe, err := serveInputs(sv.cfg.seed)
	if err != nil {
		return err
	}
	s, err := startServer(sv.cfg.binDir)
	if err != nil {
		return err
	}
	defer s.stop()
	if err := s.warm(cases); err != nil {
		return err
	}
	if err := checkWarm(s, cases); err != nil {
		return err
	}
	before, err := s.scrape()
	if err != nil {
		return err
	}
	window := max(budget/4, 3*time.Second)
	var upload, ttfb, lag []float64
	backlog := 0
	for _, level := range []struct {
		name string
		rate float64
	}{{"low", rateLow}, {"high", rateHigh}} {
		n := int(level.rate * window.Seconds())
		run := drive(s, cases, schedule(sv.cfg.seed, len(cases), n), level.rate)
		sv.count(run)
		lat := run.latencies(false)
		t, pct := tail(lat)
		sv.set("load.latency_p50_ms."+level.name, median(lat), "ms")
		sv.set("load.latency_tail_ms."+level.name, t, "ms")
		sv.out.notes["latency_tail_ms."+level.name] = map[string]any{"percentile": pct, "samples": n}
		for i := range run.reqs {
			r := &run.reqs[i]
			sv.req++
			if ns := r.upload.Load(); ns > 0 {
				upload = append(upload, float64(ns)/1e6)
			}
			if ns := r.ttfb.Load(); ns > 0 {
				ttfb = append(ttfb, float64(ns)/1e6)
			}
			sv.requestSpans(r)
		}
		lag = append(lag, run.lagMs...)
		backlog = max(backlog, run.backlogMax)
	}
	after, err := s.scrape()
	if err != nil {
		return err
	}
	sv.set("gcxd.upload_ms", median(upload), "ms")
	sv.set("gcxd.ttfb_ms", median(ttfb), "ms")
	for _, path := range []string{"bytes", "stream"} {
		cnt := after.pathCount[path] - before.pathCount[path]
		ms := 0.0
		if cnt > 0 {
			ms = (after.pathSum[path] - before.pathSum[path]) / cnt * 1e3
		}
		name := path
		if path == "stream" {
			name = "reader"
		}
		sv.set("gcxd.server_ms."+name, ms, "ms")
	}
	total := 0.0
	for path, c := range after.pathCount {
		total += c - before.pathCount[path]
	}
	sv.set("gcxd.bytes_path_share", (after.pathCount["bytes"]-before.pathCount["bytes"])/math.Max(total, 1), "ratio")
	delta := func(key string) float64 { return after.stats[key] - before.stats[key] }
	hits, misses := delta("cache_hits"), delta("cache_misses")
	sv.set("gcxd.cache_hit_ratio", hits/math.Max(hits+misses, 1), "ratio")
	// gcxd runs without -max-inflight and no request carries max_nodes,
	// so nothing is rejected unless gcxd starts shedding on its own.
	sv.set("gcxd.rejections", delta("inflight_rejections")+delta("budget_rejections"), "count")
	lagTail, _ := tail(lag)
	sv.set("load.lag_ms", lagTail, "ms")
	sv.set("load.backlog_max", float64(backlog), "count")

	// max_rps: the highest ladder rate whose tail, with failed requests
	// counted as infinitely late, stays under the limit and whose
	// backlog does not grow.
	maxRPS := 0.0
	rungs := map[string]any{}
	step := max(budget/2/time.Duration(len(rateLadder)), 1500*time.Millisecond)
	for _, rate := range rateLadder {
		n := int(rate * step.Seconds())
		run := drive(s, cases, schedule(sv.cfg.seed+int64(rate), len(cases), n), rate)
		sv.count(run)
		t, pct := tail(run.latencies(true))
		rungs[fmt.Sprint(rate)] = map[string]any{"tail_ms": t, "percentile": pct, "samples": n, "backlog_grew": run.backlogGrew}
		if t >= latencyLimitMs || run.backlogGrew {
			break
		}
		maxRPS = rate
	}
	sv.set("load.max_rps", maxRPS, "1/s")
	sv.out.notes["max_rps_ladder"] = rungs
	sv.out.notes["latency_limit_ms"] = latencyLimitMs

	// The known body-close defect: the shapes that hit it, back to back
	// on both connections. Their failures are the metric, not failed
	// operations; a wrong answer without an error still makes the run
	// incorrect.
	n := probeRequests * len(probe)
	run := drive(s, probe, schedule(sv.cfg.seed, len(probe), n), 1000)
	failed := 0
	for i := range run.reqs {
		r := &run.reqs[i]
		if r.failed {
			failed++
		}
		if r.wrong {
			sv.out.wrong++
		}
	}
	sv.set("gcxd.body_close_failures", float64(failed), "count")
	sv.out.notes["body_close_probe"] = map[string]any{"requests": n, "failures": run.failures(probe)}
	return nil
}

// count adds a load run's requests to the checked operations.
func (sv *survey) count(run *loadRun) {
	for i := range run.reqs {
		r := &run.reqs[i]
		sv.out.attempted++
		if r.failed {
			sv.out.failed++
		}
		if r.wrong {
			sv.out.wrong++
		}
	}
}

// requestSpans records a gcxd request as a root span from its due time
// to its last byte, with the generator's queueing and the upload as
// children.
func (sv *survey) requestSpans(r *request) {
	at := func(t time.Time) int64 { return int64(t.Sub(sv.t.t0)) }
	root := len(sv.t.spans)
	sv.t.add("gcxd.request", -1, sv.req, at(r.due), at(r.done), int64(r.done.Sub(r.due)), 1)
	sv.t.add("load.queue", root, sv.req, at(r.due), at(r.sent), int64(r.sent.Sub(r.due)), 1)
	if ns := r.upload.Load(); ns > 0 {
		sv.t.add("gcxd.upload", root, sv.req, at(r.sent), at(r.sent)+ns, ns, 1)
	}
}
