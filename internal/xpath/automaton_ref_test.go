package xpath

import (
	"math/rand"
	"sort"
	"testing"
)

// refAutomaton is the string-keyed automaton the symbol alphabet
// replaced: each state maps the mentioned names to successors through a
// map and sends every other name along one other transition.
// TestNextSymMatchesStringKeyed walks it beside the dense table.
type refAutomaton struct {
	states []refState
	start  int32
}

type refState struct {
	byName       map[string]int32
	other        int32
	dead, accept bool
}

func (a *refAutomaton) next(state int32, name string) int32 {
	st := &a.states[state]
	if id, ok := st.byName[name]; ok {
		return id
	}
	return st.other
}

// refCompileAutomaton is the string-keyed construction, kept verbatim
// apart from the result type.
func refCompileAutomaton(paths []Path) *refAutomaton {
	steps := make([][]Step, len(paths))
	names := map[string]struct{}{}
	for i, p := range paths {
		steps[i] = p.Steps
		for _, st := range p.Steps {
			switch st.Axis {
			case Child, Descendant, DescendantOrSelf, Self:
			default:
				return nil
			}
			if st.Test.Kind == TestName {
				names[st.Test.Name] = struct{}{}
			}
		}
	}

	a := &refAutomaton{}
	ids := map[string]int32{}

	// intern registers a canonical set, returning its state id.
	var worklist []posSet
	intern := func(s posSet) int32 {
		k := s.key()
		if id, ok := ids[k]; ok {
			return id
		}
		id := int32(len(a.states))
		ids[k] = id
		a.states = append(a.states, refState{
			dead:   len(s.positions) == 0 && !s.accept && !s.latch,
			accept: s.accept,
		})
		worklist = append(worklist, s)
		return id
	}

	// closure resolves a position's Self steps and DescendantOrSelf
	// self-halves against the element the transition enters (mirroring
	// projection's advance), recording completion in s.accept.
	var closure func(s *posSet, role, step int32, sym symbol)
	closure = func(s *posSet, role, step int32, sym symbol) {
		if int(step) >= len(steps[role]) {
			s.accept = true
			return
		}
		st := steps[role][step]
		switch st.Axis {
		case Self:
			if sym.matches(st.Test) {
				if st.FirstOnly {
					s.latch = true
				}
				closure(s, role, step+1, sym)
			}
		case DescendantOrSelf:
			if sym.matches(st.Test) {
				if st.FirstOnly {
					s.latch = true
				}
				closure(s, role, step+1, sym)
			}
			s.add(position{role, step})
		default: // Child, Descendant
			s.add(position{role, step})
		}
	}

	// rootClosure is the same resolution against the virtual document
	// root, which is matched by node() tests only (projection's
	// frame.matchesSelf for the root frame).
	var rootClosure func(s *posSet, role, step int32)
	rootClosure = func(s *posSet, role, step int32) {
		if int(step) >= len(steps[role]) {
			s.accept = true
			return
		}
		st := steps[role][step]
		switch st.Axis {
		case Self:
			if st.Test.Kind == TestNode {
				rootClosure(s, role, step+1)
			}
		case DescendantOrSelf:
			if st.Test.Kind == TestNode {
				rootClosure(s, role, step+1)
			}
			s.add(position{role, step})
		default:
			s.add(position{role, step})
		}
	}

	var start posSet
	for role := range steps {
		rootClosure(&start, int32(role), 0)
	}
	a.start = intern(start)

	// step advances every position of cur over sym: Child positions are
	// consumed on a test match; Descendant/DescendantOrSelf positions
	// self-loop (they stay active for the whole subtree) and advance on
	// a match in addition.
	step := func(cur *posSet, sym symbol) posSet {
		var next posSet
		for _, p := range cur.positions {
			st := steps[p.role][p.step]
			switch st.Axis {
			case Child:
				if sym.matches(st.Test) {
					if st.FirstOnly {
						next.latch = true
					}
					closure(&next, p.role, p.step+1, sym)
				}
			case Descendant, DescendantOrSelf:
				next.add(p)
				if sym.matches(st.Test) {
					if st.FirstOnly {
						next.latch = true
					}
					closure(&next, p.role, p.step+1, sym)
				}
			}
		}
		return next
	}

	symbols := make([]symbol, 0, len(names)+1)
	for n := range names {
		symbols = append(symbols, symbol{name: n})
	}
	sort.Slice(symbols, func(i, j int) bool { return symbols[i].name < symbols[j].name })
	symbols = append(symbols, symbol{other: true})

	for done := 0; done < len(worklist); done++ {
		cur := worklist[done] // worklist grows in lockstep with a.states
		for _, sym := range symbols {
			id := intern(step(&cur, sym))
			if len(a.states) > maxAutomatonStates {
				return nil
			}
			st := &a.states[done]
			if sym.other {
				st.other = id
			} else {
				if st.byName == nil {
					st.byName = make(map[string]int32, len(symbols))
				}
				st.byName[sym.name] = id
			}
		}
	}
	return a
}

// randomPaths draws a projection path set over a small name pool: child,
// descendant, descendant-or-self and self steps with name, wildcard,
// node() and text() tests, some first-witness steps, and the empty
// root path.
func randomPaths(rng *rand.Rand, pool []string) []Path {
	axes := []Axis{Child, Child, Descendant, DescendantOrSelf, Self}
	paths := make([]Path, 1+rng.Intn(4))
	for i := range paths {
		steps := make([]Step, rng.Intn(5))
		for j := range steps {
			st := Step{Axis: axes[rng.Intn(len(axes))], FirstOnly: rng.Intn(6) == 0}
			switch r := rng.Intn(10); {
			case r < 6:
				st.Test = Test{Kind: TestName, Name: pool[rng.Intn(len(pool))]}
			case r < 8:
				st.Test = Test{Kind: TestWildcard}
			case r < 9:
				st.Test = Test{Kind: TestNode}
			default:
				st.Test = Test{Kind: TestText}
			}
			steps[j] = st
		}
		paths[i] = Path{Steps: steps}
	}
	return paths
}

// TestNextSymMatchesStringKeyed walks the dense symbol table and the
// string-keyed reference side by side on random path sets and random
// name sequences, including names no path mentions (and one that only
// differs from a mentioned name in case or length). The two must agree
// on dead and accepting at every step, and their states must
// correspond one to one.
func TestNextSymMatchesStringKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pool := []string{"a", "b", "item", "name", "record", "root"}
	inputs := append([]string{"A", "ab", "items", "nam", "zzz", ""}, pool...)
	for trial := 0; trial < 400; trial++ {
		paths := randomPaths(rng, pool)
		a, ref := CompileAutomaton(paths), refCompileAutomaton(paths)
		if (a == nil) != (ref == nil) {
			t.Fatalf("paths %v: automaton nil=%v, reference nil=%v", paths, a == nil, ref == nil)
		}
		if a == nil {
			continue
		}
		if a.NumStates() != len(ref.states) {
			t.Fatalf("paths %v: %d states, reference %d", paths, a.NumStates(), len(ref.states))
		}
		fwd := map[int32]int32{a.Start(): ref.start}
		back := map[int32]int32{ref.start: a.Start()}
		for walkNo := 0; walkNo < 20; walkNo++ {
			s, r := a.Start(), ref.start
			for depth := 0; depth < 8; depth++ {
				name := inputs[rng.Intn(len(inputs))]
				s, r = a.NextSym(s, a.Symbols().Lookup(name)), ref.next(r, name)
				if a.Dead(s) != ref.states[r].dead || a.Accepting(s) != ref.states[r].accept {
					t.Fatalf("paths %v after %q: dead/accept %v/%v, reference %v/%v",
						paths, name, a.Dead(s), a.Accepting(s), ref.states[r].dead, ref.states[r].accept)
				}
				if m, ok := fwd[s]; ok && m != r {
					t.Fatalf("paths %v: state %d corresponds to reference states %d and %d", paths, s, m, r)
				}
				if m, ok := back[r]; ok && m != s {
					t.Fatalf("paths %v: reference state %d corresponds to states %d and %d", paths, r, m, s)
				}
				fwd[s], back[r] = r, s
			}
		}
	}
}
