package buffer

import (
	"gcx/internal/xpath"
)

// Match is a node reached by a path evaluation together with its
// derivation multiplicity. Paths with descendant axes can reach the same
// node through several derivations; the paper's role accounting is a
// multiset, so removals must respect multiplicity.
type Match struct {
	Node  *Node
	Count int
}

// Matches evaluates path relative to base over the buffered tree and
// returns the matched nodes with derivation multiplicities. Nodes appear
// at most once in the result (counts aggregated); order follows the
// step-wise expansion and is NOT document order — use SelectDocOrder for
// output positions.
//
// The result lives in the buffer's matcher scratch: it is valid only
// until the next Matches or SelectDocOrder call on b, so callers that
// match again while still holding it must copy it first.
//
// Attribute steps are rejected: attributes are element properties in
// this system and never appear in projection or sign-off paths.
func (b *Buffer) Matches(base *Node, path xpath.Path) []Match {
	if path.EndsWithAttribute() {
		panic("buffer: attribute step in buffered-path evaluation")
	}
	cur := append(b.matchA[:0], Match{Node: base, Count: 1})
	next := b.matchB
	for i := range path.Steps {
		next = b.evalStep(cur, next[:0], &path.Steps[i])
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	b.matchA, b.matchB = cur, next
	if len(cur) == 0 {
		return nil
	}
	return cur
}

// evalStep appends to out the nodes step reaches from sources. A single
// source reaches every node at most once; with several sources a node
// can be reached repeatedly, and its entries merge by summing counts,
// found through the node's epoch mark instead of a set.
func (b *Buffer) evalStep(sources, out []Match, step *xpath.Step) []Match {
	dedup := len(sources) > 1
	if dedup {
		b.nextEpoch()
	}
	for _, src := range sources {
		switch step.Axis {
		case xpath.Self:
			if matchesNode(src.Node, step.Test) {
				out = b.addMatch(out, src.Node, src.Count, dedup)
			}
		case xpath.Child:
			for c := src.Node.FirstChild; c != nil; c = c.NextSib {
				if matchesNode(c, step.Test) {
					out = b.addMatch(out, c, src.Count, dedup)
					if step.FirstOnly {
						break
					}
				}
			}
		case xpath.Descendant, xpath.DescendantOrSelf:
			// Document-order walk of the source's subtree; with
			// FirstOnly only the first match per source counts.
			n := src.Node
			if step.Axis == xpath.Descendant {
				n = docOrderSuccessor(src.Node, n)
			}
			for ; n != nil; n = docOrderSuccessor(src.Node, n) {
				if matchesNode(n, step.Test) {
					out = b.addMatch(out, n, src.Count, dedup)
					if step.FirstOnly {
						break
					}
				}
			}
		default:
			panic("buffer: unsupported axis " + step.Axis.String())
		}
	}
	return out
}

// addMatch appends n with count to out, or with dedup adds count to n's
// entry if this pass already reached it.
func (b *Buffer) addMatch(out []Match, n *Node, count int, dedup bool) []Match {
	if dedup {
		if n.matchEpoch == b.epoch {
			out[n.matchSlot].Count += count
			return out
		}
		n.matchEpoch, n.matchSlot = b.epoch, int32(len(out))
	}
	return append(out, Match{Node: n, Count: count})
}

// nextEpoch starts a new marking pass. Marks from earlier passes carry
// smaller epochs and never equal the new one; when the counter wraps,
// every node's mark is cleared so that a stale mark cannot alias a
// reused epoch (epoch 0 is never used, so zeroed nodes are unmarked).
func (b *Buffer) nextEpoch() {
	b.epoch++
	if b.epoch != 0 {
		return
	}
	b.Root.matchEpoch = 0
	for _, s := range b.slabs {
		for i := range s {
			s[i].matchEpoch = 0
		}
	}
	b.epoch = 1
}

func matchesNode(n *Node, test xpath.Test) bool {
	switch n.Kind {
	case KindElement:
		return test.MatchesElement(n.Name)
	case KindText:
		return test.MatchesText()
	case KindRoot:
		// The virtual root is matched only by node() via self /
		// descendant-or-self (role r1's target).
		return test.Kind == xpath.TestNode
	}
	return false
}

// SelectDocOrder evaluates path relative to base and returns the
// distinct matched nodes in document order — the node-set semantics of
// output positions ("$b/title" emits each title once, in order).
//
// Unlike Matches, the result is a fresh slice that stays valid across
// later match calls: the join build holds it while nested evaluation
// matches again.
func (b *Buffer) SelectDocOrder(base *Node, path xpath.Path) []*Node {
	matches := b.Matches(base, path)
	if len(matches) == 0 {
		return nil
	}
	if len(matches) == 1 {
		return []*Node{matches[0].Node}
	}
	b.nextEpoch()
	for _, m := range matches {
		m.Node.matchEpoch = b.epoch
	}
	// Every match lies in base's subtree (the axes only descend), and
	// the matches are distinct, so the walk stops at the last one.
	out := make([]*Node, 0, len(matches))
	for n := base; len(out) < len(matches); n = docOrderSuccessor(base, n) {
		if n.matchEpoch == b.epoch {
			out = append(out, n)
		}
	}
	return out
}

// Exists reports whether path has at least one match from base right
// now, short-circuiting at the first hit. The engine calls this once
// per processed token while blocked on an existence condition, so it
// must not materialize full match sets. (The caller decides whether
// "no match yet" is final by checking whether base's subtree is fully
// read.)
func Exists(base *Node, path xpath.Path) bool {
	return existsFrom(base, path.Steps)
}

func existsFrom(n *Node, steps []xpath.Step) bool {
	if len(steps) == 0 {
		return true
	}
	step := steps[0]
	rest := steps[1:]
	switch step.Axis {
	case xpath.Self:
		return matchesNode(n, step.Test) && existsFrom(n, rest)
	case xpath.Child:
		for c := n.FirstChild; c != nil; c = c.NextSib {
			if matchesNode(c, step.Test) {
				if existsFrom(c, rest) {
					return true
				}
				if step.FirstOnly {
					return false // only the first witness counts
				}
			}
		}
		return false
	case xpath.Descendant, xpath.DescendantOrSelf:
		includeSelf := step.Axis == xpath.DescendantOrSelf
		var rec func(m *Node, self bool) (found, stop bool)
		rec = func(m *Node, self bool) (bool, bool) {
			if self && matchesNode(m, step.Test) {
				if existsFrom(m, rest) {
					return true, true
				}
				if step.FirstOnly {
					return false, true
				}
			}
			for c := m.FirstChild; c != nil; c = c.NextSib {
				found, stop := rec(c, true)
				if stop {
					return found, true
				}
			}
			return false, false
		}
		found, _ := rec(n, includeSelf)
		return found
	default:
		panic("buffer: unsupported axis in Exists")
	}
}

// NextMatchingChild returns the first child of parent after cur (or the
// very first child if cur is nil) that satisfies test. It is the
// iteration step of child-axis for-loops.
func NextMatchingChild(parent, cur *Node, test xpath.Test) *Node {
	c := parent.FirstChild
	if cur != nil {
		c = cur.NextSib
	}
	for ; c != nil; c = c.NextSib {
		if matchesNode(c, test) {
			return c
		}
	}
	return nil
}

// NextMatchingDescendant returns the next node after cur in the
// document-order traversal of base's subtree that satisfies test
// (excluding base itself unless includeSelf). cur == nil starts the
// iteration. It is the iteration step of descendant-axis for-loops.
func NextMatchingDescendant(base, cur *Node, test xpath.Test, includeSelf bool) *Node {
	n := cur
	if n == nil {
		if includeSelf && matchesNode(base, test) {
			return base
		}
		n = base
		// fall through to successor scan starting at base's first child
	}
	for {
		n = docOrderSuccessor(base, n)
		if n == nil {
			return nil
		}
		if matchesNode(n, test) {
			return n
		}
	}
}

// docOrderSuccessor returns the node following n in the document-order
// traversal of base's subtree, or nil when the subtree is exhausted.
func docOrderSuccessor(base, n *Node) *Node {
	if n.FirstChild != nil {
		return n.FirstChild
	}
	for n != nil && n != base {
		if n.NextSib != nil {
			return n.NextSib
		}
		n = n.Parent
	}
	return nil
}
