package buffer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gcx/internal/xpath"
)

// The reference matcher below is the map-based implementation the
// scratch-reusing methods replaced, kept verbatim (only renamed) as the
// oracle of the differential tests.

func refMatches(base *Node, path xpath.Path) []Match {
	if path.EndsWithAttribute() {
		panic("buffer: attribute step in buffered-path evaluation")
	}
	cur := []Match{{Node: base, Count: 1}}
	for _, step := range path.Steps {
		cur = refEvalStep(cur, step)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func refEvalStep(sources []Match, step xpath.Step) []Match {
	var out []Match
	idx := make(map[*Node]int)
	add := func(n *Node, count int) {
		if i, ok := idx[n]; ok {
			out[i].Count += count
			return
		}
		idx[n] = len(out)
		out = append(out, Match{Node: n, Count: count})
	}
	for _, src := range sources {
		switch step.Axis {
		case xpath.Self:
			if matchesNode(src.Node, step.Test) {
				add(src.Node, src.Count)
			}
		case xpath.Child:
			for c := src.Node.FirstChild; c != nil; c = c.NextSib {
				if matchesNode(c, step.Test) {
					add(c, src.Count)
					if step.FirstOnly {
						break
					}
				}
			}
		case xpath.Descendant:
			refWalkDescendants(src.Node, false, step, src.Count, add)
		case xpath.DescendantOrSelf:
			refWalkDescendants(src.Node, true, step, src.Count, add)
		default:
			panic("buffer: unsupported axis " + step.Axis.String())
		}
	}
	return out
}

func refWalkDescendants(n *Node, includeSelf bool, step xpath.Step, count int, add func(*Node, int)) {
	first := step.FirstOnly
	var rec func(m *Node, self bool) bool
	rec = func(m *Node, self bool) bool {
		if self && matchesNode(m, step.Test) {
			add(m, count)
			if first {
				return true
			}
		}
		for c := m.FirstChild; c != nil; c = c.NextSib {
			if rec(c, true) {
				return true
			}
		}
		return false
	}
	rec(n, includeSelf)
}

func refSelectDocOrder(base *Node, path xpath.Path) []*Node {
	matches := refMatches(base, path)
	if len(matches) == 0 {
		return nil
	}
	if len(matches) == 1 {
		return []*Node{matches[0].Node}
	}
	set := make(map[*Node]bool, len(matches))
	for _, m := range matches {
		set[m.Node] = true
	}
	out := make([]*Node, 0, len(set))
	var rec func(n *Node)
	rec = func(n *Node) {
		if set[n] {
			out = append(out, n)
			if len(out) == len(set) {
				return
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSib {
			rec(c)
			if len(out) == len(set) {
				return
			}
		}
	}
	rec(base)
	return out
}

// randomTree buffers a random closed tree of elements named a, b or c
// and text nodes, each held by one instance of role 0, and returns every
// node including the virtual root.
func randomTree(r *rand.Rand, b *Buffer) []*Node {
	nodes := []*Node{b.Root}
	open := []*Node{b.Root}
	for i, size := 0, 1+r.Intn(40); i < size; i++ {
		parent := open[len(open)-1]
		var n *Node
		if parent != b.Root && r.Intn(4) == 0 {
			n = b.AppendText(parent, "t")
		} else {
			n = b.AppendElement(parent, string(rune('a'+r.Intn(3))), nil)
			open = append(open, n)
		}
		b.AssignRole(n, 0)
		nodes = append(nodes, n)
		for len(open) > 1 && r.Intn(3) == 0 {
			b.CloseNode(open[len(open)-1])
			open = open[:len(open)-1]
		}
	}
	for len(open) > 1 {
		b.CloseNode(open[len(open)-1])
		open = open[:len(open)-1]
	}
	return nodes
}

// randomPath draws up to four steps over the self, child, descendant
// and descendant-or-self axes, with name, wildcard, node() and text()
// tests and random first-witness flags.
func randomPath(r *rand.Rand) xpath.Path {
	axes := []xpath.Axis{xpath.Self, xpath.Child, xpath.Descendant, xpath.DescendantOrSelf}
	var p xpath.Path
	for i, k := 0, r.Intn(5); i < k; i++ {
		test := xpath.Test{Kind: xpath.TestName, Name: string(rune('a' + r.Intn(3)))}
		switch r.Intn(6) {
		case 0:
			test = xpath.Test{Kind: xpath.TestWildcard}
		case 1:
			test = xpath.Test{Kind: xpath.TestNode}
		case 2:
			test = xpath.Test{Kind: xpath.TestText}
		}
		p.Steps = append(p.Steps, xpath.Step{Axis: axes[r.Intn(len(axes))], Test: test, FirstOnly: r.Intn(3) == 0})
	}
	return p
}

// matcherStats records which shapes a differential run exercised.
type matcherStats struct {
	summed     int // matches whose count was summed over several derivations
	rootMatch  int // matches of the virtual root itself
	multiMatch int // SelectDocOrder calls with more than one node
}

// compareMatcher checks Matches and SelectDocOrder against the
// reference on one base and path.
func compareMatcher(t *testing.T, b *Buffer, base *Node, p xpath.Path, st *matcherStats) {
	t.Helper()
	want := refMatches(base, p)
	got := b.Matches(base, p)
	if len(got) != len(want) {
		t.Fatalf("Matches(%s): %d matches, reference %d", p, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Matches(%s)[%d] = {%s %d}, reference {%s %d}", p, i,
				got[i].Node.label(nil), got[i].Count, want[i].Node.label(nil), want[i].Count)
		}
		if want[i].Count > 1 {
			st.summed++
		}
		if want[i].Node.Kind == KindRoot {
			st.rootMatch++
		}
	}
	wantDoc := refSelectDocOrder(base, p)
	gotDoc := b.SelectDocOrder(base, p)
	if len(gotDoc) != len(wantDoc) {
		t.Fatalf("SelectDocOrder(%s): %d nodes, reference %d", p, len(gotDoc), len(wantDoc))
	}
	for i := range wantDoc {
		if gotDoc[i] != wantDoc[i] {
			t.Fatalf("SelectDocOrder(%s)[%d] = %s, reference %s", p, i, gotDoc[i].label(nil), wantDoc[i].label(nil))
		}
	}
	if len(wantDoc) > 1 {
		st.multiMatch++
	}
}

// checkMatcherSeed builds one random tree and compares the matchers on
// random bases (the virtual root included) and paths.
func checkMatcherSeed(t *testing.T, treeSeed, pathSeed int64, st *matcherStats) {
	t.Helper()
	b := New()
	nodes := randomTree(rand.New(rand.NewSource(treeSeed)), b)
	r := rand.New(rand.NewSource(pathSeed))
	for i := 0; i < 20; i++ {
		base := b.Root
		if r.Intn(3) > 0 {
			base = nodes[r.Intn(len(nodes))]
		}
		compareMatcher(t, b, base, randomPath(r), st)
	}
}

// TestMatchesDifferential compares the scratch-reusing matcher with the
// map-based reference over random trees and paths, and checks that the
// runs reached the shapes that need care: counts summed over several
// sources, the virtual root as a match, and multi-node document order.
func TestMatchesDifferential(t *testing.T) {
	var st matcherStats
	f := func(treeSeed, pathSeed int64) bool {
		checkMatcherSeed(t, treeSeed, pathSeed, &st)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if st.summed == 0 || st.rootMatch == 0 || st.multiMatch == 0 {
		t.Fatalf("differential run missed a shape: %+v", st)
	}
}

// TestMatchesEpochWrap runs the differential check while the dedup
// epoch wraps around. The first pass of the run marks every node with
// epoch 1, the value the counter restarts from after the wrap, so
// without the reset on wrap those stale marks would alias the live
// epoch and corrupt the counts and the document order.
func TestMatchesEpochWrap(t *testing.T) {
	dos := xpath.Path{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep(), xpath.DescendantOrSelfNodeStep()}}
	for seed := int64(0); seed < 20; seed++ {
		b := New()
		nodes := randomTree(rand.New(rand.NewSource(seed)), b)
		b.Matches(b.Root, dos)
		if b.epoch != 1 {
			t.Fatalf("seed %d: first pass used epoch %d, want 1", seed, b.epoch)
		}
		b.epoch = math.MaxUint32 - 1
		r := rand.New(rand.NewSource(seed + 1000))
		var st matcherStats
		for i := 0; i < 10; i++ {
			compareMatcher(t, b, nodes[r.Intn(len(nodes))], randomPath(r), &st)
			compareMatcher(t, b, b.Root, dos, &st)
		}
		if b.epoch >= math.MaxUint32-1 {
			t.Fatalf("seed %d: epoch %d did not wrap", seed, b.epoch)
		}
	}
}

// FuzzBufferMatches is the differential check as a fuzz target: each
// input pair seeds one random tree and its random paths.
func FuzzBufferMatches(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(i, i*31+7)
	}
	f.Fuzz(func(t *testing.T, treeSeed, pathSeed int64) {
		var st matcherStats
		checkMatcherSeed(t, treeSeed, pathSeed, &st)
	})
}
