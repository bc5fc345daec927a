package xpath

import (
	"fmt"
	"sort"

	"gcx/internal/event"
)

// Automaton is a deterministic automaton over element names compiled
// from a set of projection paths (DESIGN.md §7). Its states summarize,
// for an open element, every (role, step) matching position the
// preprojector's NFA items could occupy at that element — ignoring the
// first-witness [1] predicate and derivation counts, which only prune
// matches and never add them. A state is *dead* when the position set
// is empty and no role completed at the element: nothing inside the
// element's subtree (elements or text) can then match any projection
// path, so the preprojector may fast-forward the raw byte stream past
// the whole subtree (Tokenizer.SkipSubtree) without observing it.
//
// The automaton is built once per compiled query by subset
// construction and shared read-only by every execution (including each
// shard worker, which compiles its own inner plan). Descendant and
// descendant-or-self steps appear as self-loops: their positions stay
// in every successor state below the element where they became active,
// which is exactly why a //item path keeps the whole regions subtree
// alive while letting the sibling people section go dead.
//
// The input alphabet is compiled too: syms numbers the names the path
// tests mention 1..n, and symbol 0 is the class of every other name
// (wildcard and node() tests still match those). A state's transitions
// are one dense row of trans, indexed by symbol id, so a step is one
// slice index — the tokenizers deliver the id with each StartElement
// (event.Token.Sym), and no name is hashed on the way.
type Automaton struct {
	states []dfaState
	start  int32
	syms   *event.Symbols
	// trans holds one row of syms.Len() successor states per state:
	// the successor of state s on symbol id is trans[s*stride+id].
	trans  []int32
	stride int
}

// dfaState is one subset-construction state.
type dfaState struct {
	// dead marks the empty, non-accepting, latch-free state: no
	// projection path can match at or below an element in this state,
	// and visiting the element has no side effect on matcher state.
	dead bool
	// accept marks states where at least one role completes at the
	// element itself (the element is materialized in the buffer).
	accept bool
}

// maxAutomatonStates bounds subset construction. Projection-path sets
// are tiny (XMark queries stay under a few dozen states); the cap only
// guards pathological inputs. When it is exceeded CompileAutomaton
// returns nil and callers run without subtree skipping.
const maxAutomatonStates = 4096

// position is one NFA matching position: role's path has matched a
// prefix and expects Steps[step] next. Positions stored in states only
// carry Child, Descendant and DescendantOrSelf axes — Self steps and
// the self half of DescendantOrSelf are resolved eagerly at transition
// time, mirroring the preprojector's advance.
type position struct {
	role, step int32
}

// posSet is a canonicalized state under construction.
type posSet struct {
	positions []position
	accept    bool
	// latch marks states entered by matching a first-witness [1] step:
	// even when no position survives, the non-skipping matcher would
	// have flipped the step's shared used-latch at this element, so the
	// element itself must not be skipped (its children may still be —
	// transitions out of a latch-only state go dead). Without this bit,
	// a skipping run could buffer a later "first" witness the
	// non-skipping run suppressed.
	latch bool
}

func (s *posSet) add(p position) {
	s.positions = append(s.positions, p)
}

// key canonicalizes the set (sorted, deduplicated) and returns a
// comparable identity. It mutates s into canonical form.
func (s *posSet) key() string {
	sort.Slice(s.positions, func(i, j int) bool {
		a, b := s.positions[i], s.positions[j]
		if a.role != b.role {
			return a.role < b.role
		}
		return a.step < b.step
	})
	out := s.positions[:0]
	for i, p := range s.positions {
		if i == 0 || p != s.positions[i-1] {
			out = append(out, p)
		}
	}
	s.positions = out
	buf := make([]byte, 0, len(s.positions)*8+1)
	for _, p := range s.positions {
		buf = append(buf,
			byte(p.role), byte(p.role>>8), byte(p.role>>16), byte(p.role>>24),
			byte(p.step), byte(p.step>>8), byte(p.step>>16), byte(p.step>>24))
	}
	var flags byte
	if s.accept {
		flags |= 1
	}
	if s.latch {
		flags |= 2
	}
	buf = append(buf, flags)
	return string(buf)
}

// symbol is one input letter of the automaton during construction: a
// concrete element name, or (other) the class of all names no path
// test mentions.
type symbol struct {
	name  string
	other bool
}

func (sym symbol) matches(t Test) bool {
	switch t.Kind {
	case TestName:
		return !sym.other && t.Name == sym.name
	case TestWildcard, TestNode:
		return true
	default: // TestText never matches an element
		return false
	}
}

// CompileAutomaton builds the path automaton for a role-path set. It
// returns nil — disabling subtree skipping, never affecting
// correctness — when a path uses an axis the preprojector's element
// matching does not (Attribute), or when subset construction exceeds
// maxAutomatonStates.
func CompileAutomaton(paths []Path) *Automaton {
	a, _ := CompileAutomatonReason(paths)
	return a
}

// CompileAutomatonReason is CompileAutomaton with a diagnosis: when the
// automaton cannot be built it returns nil and the reason subtree
// skipping is unavailable for the path set, for Explain output.
func CompileAutomatonReason(paths []Path) (*Automaton, string) {
	steps := make([][]Step, len(paths))
	var names []string
	for i, p := range paths {
		steps[i] = p.Steps
		for _, st := range p.Steps {
			switch st.Axis {
			case Child, Descendant, DescendantOrSelf, Self:
			default:
				return nil, "projection path " + p.String() + " uses the " + st.Axis.String() +
					" axis, which the byte-level path DFA cannot track"
			}
			if st.Test.Kind == TestName {
				names = append(names, st.Test.Name)
			}
		}
	}

	// Sorted names give the symbol ids a deterministic order.
	sort.Strings(names)
	syms := event.NewSymbols(names)
	a := &Automaton{syms: syms, stride: syms.Len()}
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
		a.states = append(a.states, dfaState{
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

	// symbols[id] is the construction letter of symbol id: 0 is the
	// other class.
	symbols := make([]symbol, syms.Len())
	symbols[0].other = true
	for id := 1; id < len(symbols); id++ {
		symbols[id].name = syms.Name(int32(id))
	}

	for done := 0; done < len(worklist); done++ {
		cur := worklist[done] // worklist grows in lockstep with a.states
		for _, sym := range symbols {
			id := intern(step(&cur, sym))
			if len(a.states) > maxAutomatonStates {
				return nil, fmt.Sprintf("subset construction exceeded the %d-state cap", maxAutomatonStates)
			}
			a.trans = append(a.trans, id)
		}
	}
	return a, ""
}

// Start returns the state of the virtual document root.
func (a *Automaton) Start() int32 { return a.start }

// Symbols returns the automaton's input alphabet: the names its path
// tests mention. Sources tag StartElements with ids from it
// (event.Source.SetSymbols), which NextSym consumes.
func (a *Automaton) Symbols() *event.Symbols { return a.syms }

// NextSym returns the successor state entered by a child element whose
// name has symbol id sym in Symbols() (0 for a name outside it).
func (a *Automaton) NextSym(state, sym int32) int32 {
	return a.trans[int(state)*a.stride+int(sym)]
}

// Dead reports whether the state is dead: no projection path can match
// at or below an element in this state, so its entire subtree may be
// skipped at byte level.
func (a *Automaton) Dead(state int32) bool { return a.states[state].dead }

// Accepting reports whether some role completes at an element in this
// state (used by tests and Explain-style tooling).
func (a *Automaton) Accepting(state int32) bool { return a.states[state].accept }

// NumStates reports the automaton size.
func (a *Automaton) NumStates() int { return len(a.states) }
