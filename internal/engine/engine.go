// Package engine implements the GCX runtime (paper Fig. 2): the
// sequential, pull-based query evaluator on top of the buffer manager
// and the stream preprojector.
//
// The evaluator walks the rewritten query. Whenever it needs data that
// is not yet buffered — the next binding of a for-loop variable, the
// witness of an existence condition, a subtree to emit — it blocks on
// the buffer manager (ensure), which pulls tokens through the
// preprojector until the demand is satisfiable or the input is
// exhausted. signOff statements trigger role removal and, with it, the
// active garbage collection of the buffer.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/event"
	"gcx/internal/obs"
	"gcx/internal/projection"
	"gcx/internal/stats"
	"gcx/internal/xpath"
	"gcx/internal/xqast"
	"gcx/internal/xqvalue"
)

// SignOffMode selects when a signOff on a still-streaming subtree takes
// effect (DESIGN.md §3).
type SignOffMode uint8

const (
	// Deferred queues such sign-offs until the subtree's close tag has
	// been read (default; reproduces the paper's Fig. 3(c) timing).
	Deferred SignOffMode = iota
	// Eager forces the buffer manager to read to the subtree's end
	// first, then removes immediately (purges earlier, reads no more
	// input overall).
	Eager
)

// Config tunes an engine run.
type Config struct {
	SignOffMode SignOffMode
	// DisableGC runs static projection without dynamic buffer
	// minimization: roles are tracked but nothing is purged. This is
	// the projection-only baseline engine of the Fig. 5 comparison.
	DisableGC bool
	// EnableAggregation permits the count() aggregation extension.
	EnableAggregation bool
	// DisableSkip turns off projection-guided byte-level subtree
	// skipping (DESIGN.md §7) for this run; output is identical either
	// way. Skipping is also disabled implicitly when a Recorder is set,
	// because skipped subtrees do not count into the per-token buffer
	// plots.
	DisableSkip bool
	// MaxBufferedNodes, when positive, is the run's node budget: the
	// first buffered node pushing the population past it aborts the run
	// within one token, returning an error wrapping buffer.ErrBudget
	// together with the partial statistics. Zero means unlimited.
	MaxBufferedNodes int64
	// DisableJoin runs detected join plans through nested-loop
	// evaluation instead of the internal/join operator (ablation and
	// differential testing; output is identical either way).
	DisableJoin bool
	// Recorder, if non-nil, samples the buffer size per input token.
	Recorder *stats.Recorder
	// Timer, if non-nil, accumulates per-phase wall time (DESIGN.md
	// §11): ensure's pull loop into PhaseStream, the join operator's
	// scan and replay into PhaseJoinBuild/PhaseJoinProbe. A nil Timer
	// is the default and costs nothing on the hot path.
	Timer *obs.Timer
}

// Result reports the run statistics the paper's evaluation uses.
type Result struct {
	// TokensProcessed is the number of input tokens delivered to the
	// preprojector; tokens inside skipped subtrees (DESIGN.md §7) are
	// never produced and not counted — BytesSkipped/TagsSkipped report
	// the fast-forwarded remainder.
	TokensProcessed int64
	// PeakBufferedNodes is the high watermark of buffered XML nodes.
	PeakBufferedNodes int64
	// PeakBufferedBytes estimates the memory high watermark.
	PeakBufferedBytes int64
	// FinalBufferedNodes is the number of nodes left after evaluation
	// (0 for GCX; the whole projected document for the no-GC baseline).
	FinalBufferedNodes int64
	// TotalAppended / TotalPurged count buffer churn.
	TotalAppended int64
	TotalPurged   int64
	// OutputBytes is the size of the serialized result.
	OutputBytes int64
	// BytesSkipped is the number of input bytes the preprojector
	// fast-forwarded past at byte level (projection-guided subtree
	// skipping, DESIGN.md §7) without tokenizing.
	BytesSkipped int64
	// TagsSkipped counts element tags inside skipped subtrees — a lower
	// bound on the tokens saved (skipped text runs are not counted).
	TagsSkipped int64
	// SubtreesSkipped counts SkipSubtree fast-forwards.
	SubtreesSkipped int64
	// JoinProbeTuples / JoinBuildTuples / JoinMatches report the
	// streaming join operator's work: probe bindings captured, build
	// tuples materialized into the hash table, and payload emissions.
	// All zero when the plan has no join or the operator is disabled.
	JoinProbeTuples int64
	JoinBuildTuples int64
	JoinMatches     int64
}

// Engine evaluates one compiled query over one input event stream. It
// is format-agnostic: the Source and Sink given to New are the only
// places a concrete syntax (XML, JSON) exists — everything in here
// operates on the event vocabulary of internal/event.
type Engine struct {
	plan *analysis.Plan
	cfg  Config
	buf  *buffer.Buffer
	src  event.Source
	proj *projection.Preprojector
	out  event.Sink
	ctx  context.Context
	// done caches ctx.Done() so the per-step cancellation check in
	// ensure is a lock-free channel poll.
	done <-chan struct{}
	// join is the streaming join operator's run state when the plan
	// carries a detected join and Config.DisableJoin is off; nil
	// otherwise (then detected joins run nested-loop).
	join *joinRun
	// inSpan marks that a trace span is open, so nested timed sections
	// (ensure calls inside the join operator's scan) attribute to the
	// enclosing phase instead of double-counting.
	inSpan bool
}

// New builds an engine instance for a single run over the given event
// source, writing the result through sink. The caller (internal/core)
// picks the concrete source and sink for the run's input and output
// format and remains responsible for releasing them after the engine's
// Release.
func New(plan *analysis.Plan, src event.Source, sink event.Sink, cfg Config) *Engine {
	buf := buffer.New()
	buf.DisableGC = cfg.DisableGC
	buf.MaxNodes = cfg.MaxBufferedNodes
	proj := projection.New(src, buf, plan.RolePaths())
	if !cfg.DisableSkip && cfg.Recorder == nil {
		proj.EnableSkipping(plan.Automaton)
	}
	e := &Engine{
		plan: plan,
		cfg:  cfg,
		buf:  buf,
		src:  src,
		proj: proj,
		out:  sink,
	}
	if cfg.Recorder != nil {
		rec := cfg.Recorder
		proj.OnToken = func() {
			rec.Record(proj.TokensProcessed(), buf.CurrentNodes, buf.CurrentBytes)
		}
	}
	if plan.Join != nil && !cfg.DisableJoin {
		e.join = &joinRun{info: plan.Join}
	}
	return e
}

// Buffer exposes the underlying buffer (tests and the -explain tooling
// inspect it; external callers use Result).
func (e *Engine) Buffer() *buffer.Buffer { return e.buf }

// Run evaluates the query to completion.
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// RunContext evaluates the query to completion under ctx. Cancellation
// is observed at every token-pull boundary — both here, before each
// preprojector step, and inside the tokenizer — so the run aborts within
// one token of ctx being cancelled and returns ctx.Err().
//
// A node-budget breach (Config.MaxBufferedNodes) returns the partial
// run statistics alongside the buffer.ErrBudget-wrapping error, so
// callers can report how far the run got before degrading.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	err := e.run(ctx)
	if err != nil {
		if errors.Is(err, buffer.ErrBudget) {
			return e.snapshot(), err
		}
		return nil, err
	}
	return e.snapshot(), nil
}

func (e *Engine) run(ctx context.Context) error {
	e.ctx = ctx
	e.done = ctx.Done()
	e.src.SetContext(ctx)
	if e.plan.UsesAggregation && !e.cfg.EnableAggregation {
		return fmt.Errorf("engine: query uses the aggregation extension (count/sum/min/max/avg); enable it explicitly — the paper fragment excludes aggregation")
	}
	env := map[string]*buffer.Node{xqast.RootVar: e.buf.Root}
	if err := e.eval(e.plan.Rewritten.Body, env); err != nil {
		return err
	}
	// Epilogue: consume the remaining input. The paper's engines read
	// the complete stream (Fig. 5 times scale with document size even
	// for early-answer queries like Q1); it also lets deferred
	// sign-offs queued on still-open ancestors settle, establishing the
	// assignment/removal balance.
	if err := e.ensure(func() bool { return false }); err != nil {
		return err
	}
	e.buf.DrainPending()
	return e.out.Flush()
}

// snapshot captures the run statistics at the current state — the final
// result of a clean run, the partial result of a budget breach.
func (e *Engine) snapshot() *Result {
	skip := e.src.SkipStats()
	res := &Result{
		TokensProcessed:    e.proj.TokensProcessed(),
		PeakBufferedNodes:  e.buf.PeakNodes,
		PeakBufferedBytes:  e.buf.PeakBytes,
		FinalBufferedNodes: e.buf.CurrentNodes,
		TotalAppended:      e.buf.TotalAppended,
		TotalPurged:        e.buf.TotalPurged,
		OutputBytes:        e.out.BytesWritten(),
		BytesSkipped:       skip.BytesSkipped,
		TagsSkipped:        skip.TagsSkipped,
		SubtreesSkipped:    skip.SubtreesSkipped,
	}
	if e.join != nil {
		res.JoinProbeTuples = int64(len(e.join.groups))
		res.JoinBuildTuples = e.join.buildTuples
		res.JoinMatches = e.join.matches
	}
	return res
}

// CheckBalance verifies the role assignment/removal balance after Run
// (exposed for tests and the property harness).
func (e *Engine) CheckBalance() error { return e.buf.CheckBalance() }

// Release hands the engine's pooled resources — source scratch
// buffers, the sink's write buffer and the buffer manager's node
// slabs — back to their pools. Call it once per engine, after Run's
// result has been consumed and the buffer is no longer inspected; the
// engine is unusable afterwards.
func (e *Engine) Release() {
	e.src.Release()
	e.out.Release()
	e.buf.Release()
}

// ensure pulls input through the preprojector until pred is satisfied
// or the stream ends, then lets deferred sign-offs whose subtrees
// completed take effect. This is the "blocked evaluator ↔ buffer
// manager ↔ preprojector" request chain of the paper's Fig. 2. With
// tracing on, the whole pull counts into PhaseStream unless an
// enclosing span (the join operator's scan) already owns the interval.
func (e *Engine) ensure(pred func() bool) error {
	if e.cfg.Timer == nil || e.inSpan {
		return e.ensureLoop(pred)
	}
	e.inSpan = true
	start := time.Now()
	err := e.ensureLoop(pred)
	e.cfg.Timer.Add(obs.PhaseStream, time.Since(start))
	e.inSpan = false
	return err
}

// span times fn into phase p when tracing is on; nested spans attribute
// to the outermost phase.
func (e *Engine) span(p obs.Phase, fn func() error) error {
	if e.cfg.Timer == nil || e.inSpan {
		return fn()
	}
	e.inSpan = true
	start := time.Now()
	err := fn()
	e.cfg.Timer.Add(p, time.Since(start))
	e.inSpan = false
	return err
}

func (e *Engine) ensureLoop(pred func() bool) error {
	for !pred() {
		if err := e.poll(); err != nil {
			return err
		}
		ok, err := e.proj.Step()
		if err != nil {
			return err
		}
		// The budget flag is tripped inside the buffer's node allocator;
		// checking it once per pulled token keeps enforcement off the
		// per-node hot path while still aborting within one token of the
		// breach.
		if err := e.buf.BudgetErr(); err != nil {
			return err
		}
		if !ok {
			// input exhausted: the virtual root is now complete
			e.buf.Root.Closed = true
			break
		}
	}
	e.buf.DrainPending()
	return nil
}

// poll is the lock-free cancellation check: nil while the run may
// continue, ctx.Err() once the context is done.
func (e *Engine) poll() error {
	if e.done != nil {
		select {
		case <-e.done:
			return e.ctx.Err()
		default:
		}
	}
	return nil
}

// ensureClosed blocks until n's subtree is fully buffered.
func (e *Engine) ensureClosed(n *buffer.Node) error {
	return e.ensure(func() bool { return n.Closed })
}

func (e *Engine) eval(expr xqast.Expr, env map[string]*buffer.Node) error {
	switch expr := expr.(type) {
	case *xqast.Empty:
		return nil
	case *xqast.Sequence:
		for _, item := range expr.Items {
			if err := e.eval(item, env); err != nil {
				return err
			}
		}
		return nil
	case *xqast.StringLit:
		e.out.Text(expr.Value)
		return nil
	case *xqast.Element:
		attrs, err := e.evalAttrs(expr.Attrs, env)
		if err != nil {
			return err
		}
		e.out.StartElement(expr.Name, attrs)
		if err := e.eval(expr.Content, env); err != nil {
			return err
		}
		e.out.EndElement(expr.Name)
		return nil
	case *xqast.VarRef:
		n := env[expr.Var]
		if err := e.ensureClosed(n); err != nil {
			return err
		}
		buffer.Serialize(n, e.out)
		return nil
	case *xqast.PathExpr:
		return e.evalOutputPath(*expr, env)
	case *xqast.ForExpr:
		return e.evalFor(expr, env)
	case *xqast.IfExpr:
		holds, err := e.evalCond(expr.Cond, env)
		if err != nil {
			return err
		}
		if holds {
			return e.eval(expr.Then, env)
		}
		return e.eval(expr.Else, env)
	case *xqast.AggExpr:
		return e.evalAgg(expr, env)
	case *xqast.SignOff:
		return e.evalSignOff(expr, env)
	default:
		return fmt.Errorf("engine: unknown expression %T", expr)
	}
}

// evalOutputPath emits the subtrees (or attribute values) selected by a
// path expression, in document order.
func (e *Engine) evalOutputPath(pe xqast.PathExpr, env map[string]*buffer.Node) error {
	base := env[pe.Base]
	if err := e.ensureClosed(base); err != nil {
		return err
	}
	if pe.Path.EndsWithAttribute() {
		attr := pe.Path.LastStep().Test.Name
		for _, n := range e.selectElems(base, pe.Path.WithoutLastStep()) {
			if v, ok := n.Attr(attr); ok {
				e.out.Text(v)
			}
		}
		return nil
	}
	for _, n := range e.buf.SelectDocOrder(base, pe.Path) {
		buffer.Serialize(n, e.out)
	}
	return nil
}

// selectElems evaluates an element path; an empty path selects the base
// itself.
func (e *Engine) selectElems(base *buffer.Node, path xpath.Path) []*buffer.Node {
	if path.IsEmpty() {
		return []*buffer.Node{base}
	}
	return e.buf.SelectDocOrder(base, path)
}

// evalFor runs a single-step for-loop: bindings are pulled one at a
// time; the previous binding is unpinned (and thereby GC-eligible)
// before the body of the next one runs.
func (e *Engine) evalFor(f *xqast.ForExpr, env map[string]*buffer.Node) error {
	if handled, err := e.interceptFor(f, env); handled {
		return err
	}
	base := env[f.In.Base]
	step := f.In.Path.Steps[0]

	next := func(prev *buffer.Node) *buffer.Node {
		return e.nextBinding(base, prev, step)
	}

	var cur *buffer.Node
	if err := e.ensure(func() bool {
		cur = next(nil)
		return cur != nil || base.Closed
	}); err != nil {
		return err
	}
	if cur != nil {
		e.buf.Pin(cur)
	}
	for cur != nil {
		// Evaluation over already-buffered bindings pulls no tokens (a
		// blocking join like XMark Q8 can spend seconds here), so ensure's
		// cancellation check never fires; poll once per binding to keep
		// the abort latency bounded by one loop body.
		if err := e.poll(); err != nil {
			e.buf.Unpin(cur)
			return err
		}
		env[f.Var] = cur
		err := e.eval(f.Body, env)
		delete(env, f.Var)
		if err != nil {
			e.buf.Unpin(cur)
			return err
		}
		var nxt *buffer.Node
		if err := e.ensure(func() bool {
			nxt = next(cur)
			return nxt != nil || base.Closed
		}); err != nil {
			e.buf.Unpin(cur)
			return err
		}
		if nxt != nil {
			e.buf.Pin(nxt)
		}
		e.buf.Unpin(cur)
		cur = nxt
	}
	return nil
}

// nextBinding advances a loop cursor over the buffered tree.
func (e *Engine) nextBinding(base, prev *buffer.Node, step xpath.Step) *buffer.Node {
	switch step.Axis {
	case xpath.Child:
		if step.FirstOnly && prev != nil {
			return nil
		}
		return buffer.NextMatchingChild(base, prev, step.Test)
	case xpath.Descendant:
		if step.FirstOnly && prev != nil {
			return nil
		}
		return buffer.NextMatchingDescendant(base, prev, step.Test, false)
	case xpath.DescendantOrSelf:
		if step.FirstOnly && prev != nil {
			return nil
		}
		return buffer.NextMatchingDescendant(base, prev, step.Test, true)
	default:
		return nil
	}
}

// evalAttrs computes the attribute list of a constructor, evaluating
// value templates against the environment.
func (e *Engine) evalAttrs(attrs []xqast.AttrTemplate, env map[string]*buffer.Node) ([]event.Attr, error) {
	if len(attrs) == 0 {
		return nil, nil
	}
	out := make([]event.Attr, len(attrs))
	for i, a := range attrs {
		if a.Expr == nil {
			out[i] = event.Attr{Name: a.Name, Value: a.Lit}
			continue
		}
		vals, err := e.pathValues(*a.Expr, env)
		if err != nil {
			return nil, err
		}
		out[i] = event.Attr{Name: a.Name, Value: xqvalue.JoinSpace(vals)}
	}
	return out, nil
}

// evalAgg evaluates an aggregation over the selected values.
func (e *Engine) evalAgg(c *xqast.AggExpr, env map[string]*buffer.Node) error {
	vals, err := e.pathValues(c.Arg, env)
	if err != nil {
		return err
	}
	if s, ok := xqvalue.Aggregate(c.Fn, vals); ok {
		e.out.Text(s)
	}
	return nil
}

// evalSignOff executes a signOff statement: role removal plus garbage
// collection, deferred or eager per configuration.
func (e *Engine) evalSignOff(so *xqast.SignOff, env map[string]*buffer.Node) error {
	base := env[so.Base]
	if e.cfg.SignOffMode == Eager {
		if err := e.ensureClosed(base); err != nil {
			return err
		}
		e.buf.SignOffNow(base, so.Path, so.Role)
		return nil
	}
	e.buf.QueueSignOff(base, so.Path, so.Role)
	return nil
}

// --- conditions ----------------------------------------------------------

func (e *Engine) evalCond(c xqast.Cond, env map[string]*buffer.Node) (bool, error) {
	switch c := c.(type) {
	case *xqast.BoolLit:
		return c.Value, nil
	case *xqast.NotCond:
		v, err := e.evalCond(c.C, env)
		return !v, err
	case *xqast.AndCond:
		l, err := e.evalCond(c.L, env)
		if err != nil || !l {
			return false, err
		}
		return e.evalCond(c.R, env)
	case *xqast.OrCond:
		l, err := e.evalCond(c.L, env)
		if err != nil || l {
			return l, err
		}
		return e.evalCond(c.R, env)
	case *xqast.ExistsCond:
		return e.evalExists(c, env)
	case *xqast.CompareCond:
		return e.evalCompare(c, env)
	default:
		return false, fmt.Errorf("engine: unknown condition %T", c)
	}
}

// evalExists blocks until a witness appears or the base subtree is
// complete. The witness is guaranteed buffered by the condition's
// first-witness projection path (the paper's r4).
func (e *Engine) evalExists(c *xqast.ExistsCond, env map[string]*buffer.Node) (bool, error) {
	base := env[c.Arg.Base]
	if c.Arg.Path.IsEmpty() {
		return true, nil
	}
	if c.Arg.Path.EndsWithAttribute() {
		attr := c.Arg.Path.LastStep().Test.Name
		elemPath := c.Arg.Path.WithoutLastStep()
		has := func() bool {
			for _, el := range e.selectElems(base, elemPath) {
				if _, ok := el.Attr(attr); ok {
					return true
				}
			}
			return false
		}
		if err := e.ensure(func() bool { return has() || base.Closed }); err != nil {
			return false, err
		}
		return has(), nil
	}
	if err := e.ensure(func() bool {
		return buffer.Exists(base, c.Arg.Path) || base.Closed
	}); err != nil {
		return false, err
	}
	return buffer.Exists(base, c.Arg.Path), nil
}

// evalCompare implements XPath-1.0-style existential general comparison
// over string values, switching to numeric comparison when a numeric
// literal is involved or the operator is an ordering.
func (e *Engine) evalCompare(c *xqast.CompareCond, env map[string]*buffer.Node) (bool, error) {
	lv, err := e.operandValues(c.L, env)
	if err != nil {
		return false, err
	}
	rv, err := e.operandValues(c.R, env)
	if err != nil {
		return false, err
	}
	numeric := c.L.Kind == xqast.OperandNumber || c.R.Kind == xqast.OperandNumber ||
		c.Op == xqast.CmpLt || c.Op == xqast.CmpLe || c.Op == xqast.CmpGt || c.Op == xqast.CmpGe
	return xqvalue.ExistsPair(cmpOp(c.Op), lv, rv, numeric), nil
}

// cmpOp maps syntax-level operators to the shared value semantics.
func cmpOp(op xqast.CmpOp) xqvalue.CmpOp {
	switch op {
	case xqast.CmpEq:
		return xqvalue.Eq
	case xqast.CmpNe:
		return xqvalue.Ne
	case xqast.CmpLt:
		return xqvalue.Lt
	case xqast.CmpLe:
		return xqvalue.Le
	case xqast.CmpGt:
		return xqvalue.Gt
	default:
		return xqvalue.Ge
	}
}

// pathValues evaluates a path expression to its value sequence: present
// attribute values for attribute-final paths, string values of the
// selected nodes otherwise. It blocks until the base subtree is fully
// buffered.
func (e *Engine) pathValues(pe xqast.PathExpr, env map[string]*buffer.Node) ([]string, error) {
	base := env[pe.Base]
	if err := e.ensureClosed(base); err != nil {
		return nil, err
	}
	if pe.Path.EndsWithAttribute() {
		attr := pe.Path.LastStep().Test.Name
		var vals []string
		for _, el := range e.selectElems(base, pe.Path.WithoutLastStep()) {
			if v, ok := el.Attr(attr); ok {
				vals = append(vals, v)
			}
		}
		return vals, nil
	}
	nodes := e.selectElems(base, pe.Path)
	vals := make([]string, len(nodes))
	for i, n := range nodes {
		vals[i] = n.StringValue()
	}
	return vals, nil
}

// operandValues evaluates one comparison operand to its value sequence.
func (e *Engine) operandValues(o xqast.Operand, env map[string]*buffer.Node) ([]string, error) {
	switch o.Kind {
	case xqast.OperandString:
		return []string{o.Str}, nil
	case xqast.OperandNumber:
		return []string{xqvalue.FormatNumber(o.Num)}, nil
	case xqast.OperandPath:
		return e.pathValues(o.Path, env)
	default:
		return nil, fmt.Errorf("engine: unknown operand kind %d", o.Kind)
	}
}
