package xpath

import (
	"strings"
	"testing"
)

// path builds a Path from steps.
func path(steps ...Step) Path { return Path{Steps: steps} }

func descStep(name string) Step {
	return Step{Axis: Descendant, Test: Test{Kind: TestName, Name: name}}
}

// walk drives the automaton down a chain of element names, each
// translated to its symbol id as a tokenizer would.
func walk(a *Automaton, names ...string) int32 {
	s := a.Start()
	for _, n := range names {
		s = next(a, s, n)
	}
	return s
}

// next is one symbol step on an element name.
func next(a *Automaton, s int32, name string) int32 {
	return a.NextSym(s, a.Symbols().Lookup(name))
}

func TestAutomatonChildPaths(t *testing.T) {
	// /site/people/person — the Q1 binding shape.
	a := CompileAutomaton([]Path{path(ChildStep("site"), ChildStep("people"), ChildStep("person"))})
	if a == nil {
		t.Fatal("nil automaton")
	}
	if a.Dead(a.Start()) {
		t.Fatal("start state dead")
	}
	if s := walk(a, "site", "people", "person"); !a.Accepting(s) || a.Dead(s) {
		t.Fatal("person not accepted")
	}
	// A sibling section the path does not mention is dead immediately.
	if s := walk(a, "site", "regions"); !a.Dead(s) {
		t.Fatal("regions should be dead")
	}
	// Wrong root: dead.
	if s := walk(a, "other"); !a.Dead(s) {
		t.Fatal("wrong root should be dead")
	}
	// Below an accepting leaf with no continuing positions: dead.
	if s := walk(a, "site", "people", "person", "name"); !a.Dead(s) {
		t.Fatal("below the matched leaf should be dead")
	}
}

func TestAutomatonDescendantSelfLoop(t *testing.T) {
	// /site/regions/descendant::item keeps the whole regions subtree
	// alive (items may appear at any depth) but kills siblings.
	a := CompileAutomaton([]Path{path(ChildStep("site"), ChildStep("regions"), descStep("item"))})
	if a == nil {
		t.Fatal("nil automaton")
	}
	for _, chain := range [][]string{
		{"site", "regions"},
		{"site", "regions", "africa"},
		{"site", "regions", "africa", "x", "y", "z"},
	} {
		if s := walk(a, chain...); a.Dead(s) {
			t.Fatalf("%v should stay alive under the descendant self-loop", chain)
		}
	}
	if s := walk(a, "site", "regions", "africa", "item"); !a.Accepting(s) {
		t.Fatal("item under regions must accept")
	}
	if s := walk(a, "site", "people"); !a.Dead(s) {
		t.Fatal("people must be dead for a regions-only query")
	}
}

func TestAutomatonDescendantOrSelfOutputTail(t *testing.T) {
	// /a/b/descendant-or-self::node() — the output-role shape: b and
	// everything below it accepts, siblings are dead.
	a := CompileAutomaton([]Path{path(ChildStep("a"), ChildStep("b"), DescendantOrSelfNodeStep())})
	if a == nil {
		t.Fatal("nil automaton")
	}
	for _, chain := range [][]string{
		{"a", "b"},
		{"a", "b", "c"},
		{"a", "b", "c", "d"},
	} {
		if s := walk(a, chain...); !a.Accepting(s) || a.Dead(s) {
			t.Fatalf("%v must accept under descendant-or-self::node()", chain)
		}
	}
	if s := walk(a, "a", "c"); !a.Dead(s) {
		t.Fatal("sibling c must be dead")
	}
}

func TestAutomatonWildcard(t *testing.T) {
	// /bib/*/price: any second-level element stays alive.
	a := CompileAutomaton([]Path{path(ChildStep("bib"), WildcardStep(), ChildStep("price"))})
	if s := walk(a, "bib", "anything"); a.Dead(s) {
		t.Fatal("wildcard level must stay alive")
	}
	if s := walk(a, "bib", "x", "price"); !a.Accepting(s) {
		t.Fatal("price must accept")
	}
	if s := walk(a, "bib", "x", "title"); !a.Dead(s) {
		t.Fatal("non-price grandchild must be dead")
	}
}

func TestAutomatonFirstWitnessLatch(t *testing.T) {
	// A matched [1] step flips a shared used-latch in the preprojector
	// even when the continuation dies; the automaton must keep such
	// elements alive so skipping cannot diverge on latch state.
	p := path(
		ChildStep("a"),
		Step{Axis: Child, Test: Test{Kind: TestName, Name: "w"}, FirstOnly: true},
		Step{Axis: Self, Test: Test{Kind: TestName, Name: "never"}},
	)
	a := CompileAutomaton([]Path{p})
	if a == nil {
		t.Fatal("nil automaton")
	}
	s := walk(a, "a", "w")
	if a.Dead(s) {
		t.Fatal("element matching a [1] step must not be skipped (latch side effect)")
	}
	// But its children carry no positions: dead from there on.
	if s2 := next(a, s, "x"); !a.Dead(s2) {
		t.Fatal("children of a latch-only state must be dead")
	}
}

func TestAutomatonMultiplePaths(t *testing.T) {
	// Union: alive wherever any path is alive.
	a := CompileAutomaton([]Path{
		path(ChildStep("a"), ChildStep("b")),
		path(ChildStep("a"), ChildStep("c"), ChildStep("d")),
	})
	if s := walk(a, "a", "c"); a.Dead(s) {
		t.Fatal("c alive via second path")
	}
	if s := walk(a, "a", "b"); !a.Accepting(s) {
		t.Fatal("b accepts via first path")
	}
	if s := walk(a, "a", "e"); !a.Dead(s) {
		t.Fatal("e dead in both")
	}
}

func TestAutomatonEmptyPathRole(t *testing.T) {
	// The root role "/" (empty path) accepts at the root and
	// contributes nothing below; other paths still work.
	a := CompileAutomaton([]Path{
		{},
		path(ChildStep("a")),
	})
	if !a.Accepting(a.Start()) {
		t.Fatal("empty path must accept at the root")
	}
	if s := walk(a, "a"); !a.Accepting(s) {
		t.Fatal("/a must accept")
	}
	if s := walk(a, "b"); !a.Dead(s) {
		t.Fatal("/b must be dead")
	}
}

func TestAutomatonAttributeDisables(t *testing.T) {
	if a := CompileAutomaton([]Path{path(ChildStep("a"), AttributeStep("id"))}); a != nil {
		t.Fatal("attribute paths must disable the automaton")
	}
}

// TestCompileAutomatonReason: the diagnosis names the offending axis on
// failure and is empty on success (Plan.Explain's "Skipping:" line).
func TestCompileAutomatonReason(t *testing.T) {
	a, reason := CompileAutomatonReason([]Path{path(ChildStep("a"), AttributeStep("id"))})
	if a != nil || !strings.Contains(reason, "attribute") {
		t.Fatalf("want nil automaton and an attribute-axis reason, got %v %q", a, reason)
	}
	a, reason = CompileAutomatonReason([]Path{path(ChildStep("a"), ChildStep("b"))})
	if a == nil || reason != "" {
		t.Fatalf("want automaton and empty reason, got %v %q", a, reason)
	}
}

func TestAutomatonDeterministicAndTotal(t *testing.T) {
	// Every state must have a transition for every symbol (spot-check
	// by walking random-ish chains without panics).
	a := CompileAutomaton([]Path{
		path(ChildStep("a"), descStep("b"), WildcardStep()),
		path(ChildStep("a"), ChildStep("c"), DescendantOrSelfNodeStep()),
	})
	if a == nil {
		t.Fatal("nil automaton")
	}
	names := []string{"a", "b", "c", "zzz", "b"}
	s := a.Start()
	for i := 0; i < 64; i++ {
		s = next(a, s, names[i%len(names)])
	}
	if a.NumStates() < 2 {
		t.Fatalf("suspiciously small automaton: %d states", a.NumStates())
	}
}
