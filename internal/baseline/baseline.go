// Package baseline implements the reference engines of the paper's
// Figure 5 comparison, one per buffering discipline:
//
//   - DOM engine (this file): buffer the complete input, then evaluate —
//     the non-streaming class (Galax, Saxon, QizX, MonetDB-with-reload).
//   - Projection-only engine: the GCX engine with garbage collection
//     disabled — static projection without dynamic buffer minimization
//     (the static-analysis-only class: Marian&Siméon projection,
//     FluXQuery without schema knowledge).
//
// Both evaluate the same normalized query with the same value semantics
// as the GCX engine, so outputs are byte-identical — which the
// differential property tests rely on.
package baseline

import (
	"context"
	"fmt"
	"io"

	"gcx/internal/analysis"
	"gcx/internal/dom"
	"gcx/internal/engine"
	"gcx/internal/event"
	"gcx/internal/xmltok"
	"gcx/internal/xpath"
	"gcx/internal/xqast"
	"gcx/internal/xqvalue"
)

// RunDOM evaluates the plan's normalized query over a fully buffered
// XML document (convenience wrapper over RunDOMSource for tests and
// callers with plain readers).
func RunDOM(plan *analysis.Plan, input io.Reader, output io.Writer, enableAggregation bool) (*engine.Result, error) {
	src := xmltok.NewTokenizer(input)
	sink := xmltok.NewSerializer(output)
	defer src.Release()
	defer sink.Release()
	return RunDOMSource(context.Background(), plan, src, sink, enableAggregation, 0)
}

// RunDOMSource evaluates the plan's normalized query over a fully
// buffered document read from an arbitrary event source, under a
// cancellation context: parsing aborts at token-pull boundaries,
// evaluation between loop iterations. maxNodes, when positive, is the
// node budget of the parse (the DOM engine's buffer population is the
// whole document); a breach aborts with an error wrapping
// buffer.ErrBudget. The caller owns src and sink and releases them
// after the call.
func RunDOMSource(ctx context.Context, plan *analysis.Plan, src event.Source, out event.Sink, enableAggregation bool, maxNodes int64) (*engine.Result, error) {
	if plan.UsesAggregation && !enableAggregation {
		return nil, fmt.Errorf("baseline: query uses the aggregation extension; enable it explicitly")
	}
	doc, err := dom.ParseSourceBudget(ctx, src, maxNodes)
	if err != nil {
		return nil, err
	}
	ev := &domEval{out: out, ctx: ctx}
	env := map[string]*dom.Node{xqast.RootVar: doc.Root}
	if err := ev.eval(plan.Normalized.Body, env); err != nil {
		return nil, err
	}
	if err := out.Flush(); err != nil {
		return nil, err
	}
	res := &engine.Result{
		TokensProcessed: doc.Tokens,
		// full buffering: the whole document is the watermark and stays
		PeakBufferedNodes:  doc.Nodes,
		PeakBufferedBytes:  doc.Bytes,
		FinalBufferedNodes: doc.Nodes,
		TotalAppended:      doc.Nodes,
		OutputBytes:        out.BytesWritten(),
	}
	return res, nil
}

// domEval is the recursive DOM evaluator; it mirrors the GCX engine's
// semantics without any streaming machinery.
type domEval struct {
	out event.Sink
	ctx context.Context
}

func (ev *domEval) eval(expr xqast.Expr, env map[string]*dom.Node) error {
	switch expr := expr.(type) {
	case *xqast.Empty:
		return nil
	case *xqast.Sequence:
		for _, item := range expr.Items {
			if err := ev.eval(item, env); err != nil {
				return err
			}
		}
		return nil
	case *xqast.StringLit:
		ev.out.Text(expr.Value)
		return nil
	case *xqast.Element:
		attrs := make([]event.Attr, len(expr.Attrs))
		for i, a := range expr.Attrs {
			if a.Expr == nil {
				attrs[i] = event.Attr{Name: a.Name, Value: a.Lit}
				continue
			}
			vals, err := ev.pathValues(*a.Expr, env)
			if err != nil {
				return err
			}
			attrs[i] = event.Attr{Name: a.Name, Value: xqvalue.JoinSpace(vals)}
		}
		ev.out.StartElement(expr.Name, attrs)
		if err := ev.eval(expr.Content, env); err != nil {
			return err
		}
		ev.out.EndElement(expr.Name)
		return nil
	case *xqast.VarRef:
		dom.Serialize(env[expr.Var], ev.out)
		return nil
	case *xqast.PathExpr:
		base := env[expr.Base]
		if expr.Path.EndsWithAttribute() {
			attr := expr.Path.LastStep().Test.Name
			for _, n := range selectElems(base, expr.Path.WithoutLastStep()) {
				if v, ok := n.Attr(attr); ok {
					ev.out.Text(v)
				}
			}
			return nil
		}
		for _, n := range dom.Select(base, expr.Path) {
			dom.Serialize(n, ev.out)
		}
		return nil
	case *xqast.ForExpr:
		base := env[expr.In.Base]
		for _, n := range dom.Select(base, expr.In.Path) {
			if ev.ctx != nil {
				if err := ev.ctx.Err(); err != nil {
					return err
				}
			}
			env[expr.Var] = n
			err := ev.eval(expr.Body, env)
			delete(env, expr.Var)
			if err != nil {
				return err
			}
		}
		return nil
	case *xqast.IfExpr:
		holds, err := ev.cond(expr.Cond, env)
		if err != nil {
			return err
		}
		if holds {
			return ev.eval(expr.Then, env)
		}
		return ev.eval(expr.Else, env)
	case *xqast.AggExpr:
		vals, err := ev.pathValues(expr.Arg, env)
		if err != nil {
			return err
		}
		if s, ok := xqvalue.Aggregate(expr.Fn, vals); ok {
			ev.out.Text(s)
		}
		return nil
	case *xqast.SignOff:
		return fmt.Errorf("baseline: sign-offs have no meaning in the DOM engine")
	default:
		return fmt.Errorf("baseline: unknown expression %T", expr)
	}
}

func selectElems(base *dom.Node, path xpath.Path) []*dom.Node {
	if path.IsEmpty() {
		return []*dom.Node{base}
	}
	return dom.Select(base, path)
}

func (ev *domEval) cond(c xqast.Cond, env map[string]*dom.Node) (bool, error) {
	switch c := c.(type) {
	case *xqast.BoolLit:
		return c.Value, nil
	case *xqast.NotCond:
		v, err := ev.cond(c.C, env)
		return !v, err
	case *xqast.AndCond:
		l, err := ev.cond(c.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.cond(c.R, env)
	case *xqast.OrCond:
		l, err := ev.cond(c.L, env)
		if err != nil || l {
			return l, err
		}
		return ev.cond(c.R, env)
	case *xqast.ExistsCond:
		base := env[c.Arg.Base]
		if c.Arg.Path.IsEmpty() {
			return true, nil
		}
		if c.Arg.Path.EndsWithAttribute() {
			attr := c.Arg.Path.LastStep().Test.Name
			for _, el := range selectElems(base, c.Arg.Path.WithoutLastStep()) {
				if _, ok := el.Attr(attr); ok {
					return true, nil
				}
			}
			return false, nil
		}
		return len(dom.Select(base, c.Arg.Path)) > 0, nil
	case *xqast.CompareCond:
		lv, err := ev.operand(c.L, env)
		if err != nil {
			return false, err
		}
		rv, err := ev.operand(c.R, env)
		if err != nil {
			return false, err
		}
		numeric := c.L.Kind == xqast.OperandNumber || c.R.Kind == xqast.OperandNumber ||
			c.Op == xqast.CmpLt || c.Op == xqast.CmpLe || c.Op == xqast.CmpGt || c.Op == xqast.CmpGe
		return xqvalue.ExistsPair(cmpOp(c.Op), lv, rv, numeric), nil
	default:
		return false, fmt.Errorf("baseline: unknown condition %T", c)
	}
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

// pathValues evaluates a path expression to its value sequence,
// mirroring the streaming engine exactly.
func (ev *domEval) pathValues(pe xqast.PathExpr, env map[string]*dom.Node) ([]string, error) {
	base := env[pe.Base]
	if pe.Path.EndsWithAttribute() {
		attr := pe.Path.LastStep().Test.Name
		var vals []string
		for _, el := range selectElems(base, pe.Path.WithoutLastStep()) {
			if v, ok := el.Attr(attr); ok {
				vals = append(vals, v)
			}
		}
		return vals, nil
	}
	nodes := selectElems(base, pe.Path)
	vals := make([]string, len(nodes))
	for i, n := range nodes {
		vals[i] = n.StringValue()
	}
	return vals, nil
}

func (ev *domEval) operand(o xqast.Operand, env map[string]*dom.Node) ([]string, error) {
	switch o.Kind {
	case xqast.OperandString:
		return []string{o.Str}, nil
	case xqast.OperandNumber:
		return []string{xqvalue.FormatNumber(o.Num)}, nil
	case xqast.OperandPath:
		return ev.pathValues(o.Path, env)
	default:
		return nil, fmt.Errorf("baseline: unknown operand kind %d", o.Kind)
	}
}
