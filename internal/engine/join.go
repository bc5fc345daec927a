package engine

import (
	"fmt"

	"gcx/internal/analysis"
	"gcx/internal/buffer"
	"gcx/internal/join"
	"gcx/internal/obs"
	"gcx/internal/xqast"
)

// joinRun is the per-run state of the streaming join operator
// (DESIGN.md §10). The engine's evalFor intercepts the plan's probe and
// build loops: probe bindings stream through with their output events
// captured into groups, the build loop is skipped during capture (only
// its splice position is recorded), and at end of input the buffered
// build side is scanned once into a keyed hash table whose payloads are
// replayed into the groups — the nested-loop event sequence in
// O(probe + build + matches).
type joinRun struct {
	info *analysis.JoinInfo
	// entered marks that the probe chain's head has been reached (it
	// guards the ProbeHead==ProbeLoop single-step case against
	// re-interception on the recursive call).
	entered bool
	// cap is the active per-binding capture sink while a probe body
	// evaluates; nil outside captures.
	cap      *join.Capture
	spliceAt int
	spliced  bool
	groups   []join.Group

	buildTuples int64
	matches     int64
}

// interceptFor routes the plan's join loops away from nested
// evaluation. It reports whether it handled the loop.
func (e *Engine) interceptFor(f *xqast.ForExpr, env map[string]*buffer.Node) (bool, error) {
	j := e.join
	if j == nil {
		return false, nil
	}
	switch {
	case f == j.info.BuildHead && j.cap != nil:
		// The probe body reached the build loop: record where the
		// matched payloads splice into this binding's event stream and
		// skip the nested scan entirely.
		if j.spliced {
			return true, fmt.Errorf("engine: join build loop reached twice in one probe binding")
		}
		j.spliceAt = j.cap.Mark()
		j.spliced = true
		return true, nil
	case f == j.info.ProbeHead && !j.entered:
		j.entered = true
		if err := e.evalFor(f, env); err != nil {
			return true, err
		}
		return true, e.finalizeJoin()
	case f == j.info.ProbeLoop && j.entered && j.cap == nil:
		return true, e.evalJoinProbe(f, env)
	}
	return false, nil
}

// evalJoinProbe is evalFor's cursor loop with the body captured per
// binding instead of evaluated against the live sink.
func (e *Engine) evalJoinProbe(f *xqast.ForExpr, env map[string]*buffer.Node) error {
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
		// Same latency contract as evalFor: captures over buffered
		// bindings pull no tokens, so poll once per binding.
		if err := e.poll(); err != nil {
			e.buf.Unpin(cur)
			return err
		}
		env[f.Var] = cur
		err := e.captureProbeBinding(f, env)
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

// captureProbeBinding evaluates one probe binding's body into a capture
// sink and appends the resulting group. The join keys are extracted
// first: sign-offs inside the body may purge parts of the probe record
// as they execute.
func (e *Engine) captureProbeBinding(f *xqast.ForExpr, env map[string]*buffer.Node) error {
	j := e.join
	keys, err := e.pathValues(xqast.PathExpr{Base: j.info.ProbeVar, Path: j.info.ProbeKey}, env)
	if err != nil {
		return err
	}
	cap := join.NewCapture()
	j.cap, j.spliced = cap, false
	saved := e.out
	e.out = cap
	err = e.eval(f.Body, env)
	e.out = saved
	j.cap = nil
	if err != nil {
		return err
	}
	ops := cap.Take()
	g := join.Group{Keys: keys, Head: ops, Splice: j.spliced}
	if j.spliced {
		g.Head, g.Tail = ops[:j.spliceAt:j.spliceAt], ops[j.spliceAt:]
	}
	j.groups = append(j.groups, g)
	return nil
}

// finalizeJoin runs once the probe chain is exhausted: pull to end of
// input (the build side is complete only then — a later sibling of any
// build ancestor could still contribute tuples), materialize the build
// table, and emit the groups. Build nodes are still buffered here
// because their hoisted sign-offs are top-level statements that execute
// after the output wrapper.
func (e *Engine) finalizeJoin() error {
	j := e.join
	if err := e.ensureClosed(e.buf.Root); err != nil {
		return err
	}

	table := join.NewTable()
	scan := false
	for i := range j.groups {
		if j.groups[i].Splice {
			scan = true
			break
		}
	}
	if scan {
		// The build-side materialization is its own trace phase; the
		// ensure calls inside pathValues find their subtrees already
		// buffered, and the span guard keeps them out of PhaseStream.
		err := e.span(obs.PhaseJoinBuild, func() error {
			tuples := e.buf.SelectDocOrder(e.buf.Root, j.info.BuildPath)
			benv := map[string]*buffer.Node{xqast.RootVar: e.buf.Root}
			i := 0
			next := func(*buffer.Node) *buffer.Node {
				if i == len(tuples) {
					return nil
				}
				n := tuples[i]
				i++
				return n
			}
			return join.Tuples(next, e.poll, func(t *buffer.Node) error {
				benv[j.info.BuildVar] = t
				keys, err := e.pathValues(xqast.PathExpr{Base: j.info.BuildVar, Path: j.info.BuildKey}, benv)
				if err != nil {
					return err
				}
				cap := join.NewCapture()
				saved := e.out
				e.out = cap
				err = e.eval(j.info.Then, benv)
				e.out = saved
				if err != nil {
					return err
				}
				table.Add(keys, cap.Take())
				return nil
			})
		})
		if err != nil {
			return err
		}
		j.buildTuples = int64(table.Len())
	}

	// Replay in probe document order; matched payloads in build document
	// order — exactly the nested-loop emission sequence.
	return e.span(obs.PhaseJoinProbe, func() error {
		for gi := range j.groups {
			if err := e.poll(); err != nil {
				return err
			}
			g := &j.groups[gi]
			join.Replay(g.Head, e.out)
			if g.Splice {
				for _, ti := range table.Match(g.Keys) {
					join.Replay(table.Payload(ti), e.out)
					j.matches++
				}
			}
			join.Replay(g.Tail, e.out)
			g.Head, g.Tail = nil, nil
		}
		return nil
	})
}
