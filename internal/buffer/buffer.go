package buffer

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"gcx/internal/event"
)

// ErrBudget is the sentinel of a node-budget breach: allocating one more
// node would push the buffer population past MaxNodes. The engine
// surfaces it (wrapped with the concrete numbers) instead of letting the
// buffer grow without bound; match with errors.Is.
var ErrBudget = errors.New("buffer node budget exceeded")

// Buffer is the buffer manager's store: the tree of buffered nodes and
// the accounting needed for the paper's plots and invariants.
type Buffer struct {
	Root *Node

	// CurrentNodes is the paper's y-axis: buffered element and text
	// nodes (the virtual root is not counted).
	CurrentNodes int64
	// PeakNodes is the high watermark of CurrentNodes.
	PeakNodes int64
	// CurrentBytes estimates the resident size of the buffered tree
	// (per-node overhead plus name/text/attribute payloads); PeakBytes
	// is its high watermark — the "memory consumption" column of the
	// paper's Figure 5.
	CurrentBytes int64
	PeakBytes    int64
	// TotalAppended counts every node ever buffered.
	TotalAppended int64
	// TotalPurged counts every node ever purged.
	TotalPurged int64

	// assigned/removed count role instances for the balance invariant.
	assigned map[int]int64
	removed  map[int]int64

	// pending holds deferred sign-offs (see PendingSignOffs).
	pending []pendingSignOff

	// DisableGC turns the purge step off. The projection-only baseline
	// engine (static analysis without dynamic buffer minimization) runs
	// with this set: roles are still tracked, nothing is ever freed.
	DisableGC bool

	// MaxNodes, when positive, is the node budget: the first allocation
	// that would push CurrentNodes past it trips the sticky breached
	// flag (see BudgetErr). The allocation itself still succeeds — the
	// engine checks BudgetErr at its next token boundary and aborts
	// gracefully, so enforcement costs one compare per node, not an
	// error path through the allocator.
	MaxNodes int64
	breached bool

	// Node arena: nodes are carved out of pooled slabs so that one
	// execution's node churn does not translate into one allocation per
	// buffered node. Slabs go back to the pool in Release. Node structs
	// stay valid (never recycled) for the whole run — purged nodes only
	// drop their payloads — so stale references behave exactly as with
	// individual allocations.
	slab     *nodeSlab
	slabUsed int
	slabs    []*nodeSlab
}

// slabSize is the number of nodes per arena slab (~32 KiB of Node
// structs).
const slabSize = 256

type nodeSlab [slabSize]Node

var slabPool = sync.Pool{New: func() any { return new(nodeSlab) }}

// newNode carves a zeroed node out of the current slab.
func (b *Buffer) newNode() *Node {
	if b.MaxNodes > 0 && b.CurrentNodes >= b.MaxNodes {
		b.breached = true
	}
	if b.slab == nil || b.slabUsed == slabSize {
		b.slab = slabPool.Get().(*nodeSlab)
		b.slabs = append(b.slabs, b.slab)
		b.slabUsed = 0
	}
	n := &b.slab[b.slabUsed]
	b.slabUsed++
	return n
}

// Release hands the buffer's node slabs back to the pool. It must only
// be called once no node of this buffer is referenced anymore — after
// the run's results have been extracted. The buffer is unusable
// afterwards (the root is poisoned so accidental reuse fails fast).
func (b *Buffer) Release() {
	for _, s := range b.slabs {
		*s = nodeSlab{}
		slabPool.Put(s)
	}
	b.slabs = nil
	b.slab = nil
	b.slabUsed = 0
	b.Root = nil
	b.pending = nil
}

// New returns an empty buffer containing only the (permanently pinned)
// virtual root.
func New() *Buffer {
	root := &Node{Kind: KindRoot, pins: 1, subtreeWeight: 1}
	return &Buffer{
		Root:     root,
		assigned: make(map[int]int64),
		removed:  make(map[int]int64),
	}
}

// BudgetErr returns nil while the buffer has stayed within MaxNodes,
// and an error wrapping ErrBudget once an allocation has crossed the
// budget. The flag is sticky: garbage collection dropping the
// population back under budget does not clear it, so a breach is
// reported even when the watermark only spiked.
func (b *Buffer) BudgetErr() error {
	if !b.breached {
		return nil
	}
	return fmt.Errorf("%w: %d nodes buffered, budget %d (peak %d)",
		ErrBudget, b.CurrentNodes, b.MaxNodes, b.PeakNodes)
}

// addWeight adjusts the subtreeWeight chain from n to the root.
func addWeight(n *Node, delta int64) {
	for p := n; p != nil; p = p.Parent {
		p.subtreeWeight += delta
	}
}

// addNodes adjusts the subtreeNodes chain from n to the root.
func addNodes(n *Node, delta int64) {
	for p := n; p != nil; p = p.Parent {
		p.subtreeNodes += delta
	}
}

// AppendElement buffers a new element under parent. The node starts
// open: it carries one pin until CloseNode is called, so it cannot be
// purged while its subtree is still streaming in.
func (b *Buffer) AppendElement(parent *Node, name string, attrs []event.Attr) *Node {
	n := b.newNode()
	n.Kind = KindElement
	n.Name = name
	n.Attrs = attrs
	n.Parent = parent
	n.pins = 1
	b.link(parent, n)
	addWeight(n, 1) // the open pin
	return n
}

// AppendText buffers a text node under parent. Text nodes are born
// closed and unpinned. The preprojector only buffers text that matched a
// projection path, so the caller must assign at least one role right
// after appending; a permanently role-less text node would violate the
// zero-weight-is-purged invariant.
func (b *Buffer) AppendText(parent *Node, text string) *Node {
	n := b.newNode()
	n.Kind = KindText
	n.Text = text
	n.Parent = parent
	n.Closed = true
	b.link(parent, n)
	return n
}

// nodeBytes estimates the resident size of a single buffered node:
// struct overhead plus payload strings.
func nodeBytes(n *Node) int64 {
	size := int64(128) // struct, links, role map headroom
	size += int64(len(n.Name) + len(n.Text))
	for _, a := range n.Attrs {
		size += int64(len(a.Name) + len(a.Value) + 32)
	}
	return size
}

func (b *Buffer) link(parent, n *Node) {
	n.subtreeNodes = 1
	n.bytes = nodeBytes(n)
	if parent.LastChild != nil {
		parent.LastChild.NextSib = n
		n.PrevSib = parent.LastChild
		parent.LastChild = n
	} else {
		parent.FirstChild = n
		parent.LastChild = n
	}
	addNodes(parent, 1)
	b.CurrentNodes++
	b.CurrentBytes += n.bytes
	b.TotalAppended++
	if b.CurrentNodes > b.PeakNodes {
		b.PeakNodes = b.CurrentNodes
	}
	if b.CurrentBytes > b.PeakBytes {
		b.PeakBytes = b.CurrentBytes
	}
}

// AssignRole adds one instance of role to n.
func (b *Buffer) AssignRole(n *Node, role int) {
	if n.roles == nil {
		n.roles = make(map[int]int, 2)
	}
	n.roles[role]++
	b.assigned[role]++
	addWeight(n, 1)
}

// RemoveRole removes count instances of role from n and garbage-collects.
// It panics if the node does not carry that many instances — that would
// be a sign-off placement bug, which the engine must never produce.
func (b *Buffer) RemoveRole(n *Node, role, count int) {
	if count == 0 {
		return
	}
	have := n.roles[role]
	if have < count {
		panic(fmt.Sprintf("buffer: removing %d×r%d from node <%s> carrying %d", count, role+1, n.Name, have))
	}
	if have == count {
		delete(n.roles, role)
	} else {
		n.roles[role] = have - count
	}
	b.removed[role] += int64(count)
	addWeight(n, -int64(count))
	b.collect(n)
}

// Pin protects n from purging (an evaluator reference such as the
// current for-loop binding). Pins nest.
func (b *Buffer) Pin(n *Node) {
	n.pins++
	addWeight(n, 1)
}

// Unpin releases a pin and garbage-collects.
func (b *Buffer) Unpin(n *Node) {
	if n.pins == 0 {
		panic("buffer: unpin of unpinned node")
	}
	n.pins--
	addWeight(n, -1)
	b.collect(n)
}

// CloseNode records the arrival of n's end tag and releases its open
// pin.
func (b *Buffer) CloseNode(n *Node) {
	if n.Closed {
		return
	}
	n.Closed = true
	b.Unpin(n)
}

// collect purges the largest purgeable subtree containing n: it climbs
// to the highest ancestor whose subtreeWeight is zero and unlinks it.
// This is the paper's active garbage collection, triggered by the
// reception of signOff statements (and by pin releases).
func (b *Buffer) collect(n *Node) {
	if b.DisableGC {
		return
	}
	if n.subtreeWeight != 0 || n.unlinked || !n.InBuffer() {
		return
	}
	victim := n
	for victim.Parent != nil && victim.Parent.Kind != KindRoot && victim.Parent.subtreeWeight == 0 {
		victim = victim.Parent
	}
	if victim.Kind == KindRoot {
		return
	}
	b.unlink(victim)
}

func (b *Buffer) unlink(n *Node) {
	parent := n.Parent
	if n.PrevSib != nil {
		n.PrevSib.NextSib = n.NextSib
	} else if parent != nil {
		parent.FirstChild = n.NextSib
	}
	if n.NextSib != nil {
		n.NextSib.PrevSib = n.PrevSib
	} else if parent != nil {
		parent.LastChild = n.PrevSib
	}
	if parent != nil {
		addNodes(parent, -n.subtreeNodes)
	}
	b.CurrentNodes -= n.subtreeNodes
	b.CurrentBytes -= releaseSubtree(n)
	b.TotalPurged += n.subtreeNodes
	n.Parent = nil
	n.PrevSib = nil
	n.NextSib = nil
}

// releaseSubtree sums the per-node size estimates of a purged subtree
// and releases each node's payload: name, text and attribute strings are
// dropped so the purged data becomes collectible immediately (the node
// structs themselves live in arena slabs until Buffer.Release). Every
// node is marked unlinked so stale references detect the purge without
// walking a parent chain. It runs once per purged subtree, so the total
// cost over a run is linear in the number of nodes ever buffered.
func releaseSubtree(n *Node) int64 {
	total := n.bytes
	for c := n.FirstChild; c != nil; {
		next := c.NextSib
		total += releaseSubtree(c)
		c = next
	}
	n.unlinked = true
	n.Name = ""
	n.Text = ""
	n.Attrs = nil
	n.roles = nil
	n.FirstChild = nil
	n.LastChild = nil
	n.PrevSib = nil
	n.NextSib = nil
	return total
}

// Dump renders the buffer tree with role annotations, reproducing the
// paper's Figure 1 pictures (e.g. "book{r3,r5,r6}"). roleName may be
// nil, in which case roles print as r1, r2, ...
func (b *Buffer) Dump(roleName func(int) string) string {
	var sb strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.label(roleName))
		sb.WriteString("\n")
		for c := n.FirstChild; c != nil; c = c.NextSib {
			rec(c, depth+1)
		}
	}
	rec(b.Root, 0)
	return sb.String()
}

// CheckInvariants verifies the structural accounting of the whole
// buffer; tests call it after every mutation sequence.
func (b *Buffer) CheckInvariants() error {
	var walk func(n *Node) (weight, nodes int64, err error)
	walk = func(n *Node) (int64, int64, error) {
		weight := int64(n.pins + n.RoleTotal())
		var nodes int64
		if n.Kind != KindRoot {
			nodes = 1
		}
		for c := n.FirstChild; c != nil; c = c.NextSib {
			if c.Parent != n {
				return 0, 0, fmt.Errorf("child %q has wrong parent", c.Name)
			}
			w, m, err := walk(c)
			if err != nil {
				return 0, 0, err
			}
			weight += w
			nodes += m
		}
		if weight != n.subtreeWeight {
			return 0, 0, fmt.Errorf("node %q subtreeWeight=%d, recomputed %d", n.Name, n.subtreeWeight, weight)
		}
		if n.subtreeNodes != nodes {
			return 0, 0, fmt.Errorf("node %q subtreeNodes=%d, recomputed %d", n.Name, n.subtreeNodes, nodes)
		}
		return weight, nodes, nil
	}
	_, nodes, err := walk(b.Root)
	if err != nil {
		return err
	}
	if nodes != b.CurrentNodes {
		return fmt.Errorf("CurrentNodes=%d, recomputed %d", b.CurrentNodes, nodes)
	}
	if !b.DisableGC {
		var zero func(n *Node) error
		zero = func(n *Node) error {
			if n.Kind != KindRoot && n.subtreeWeight == 0 {
				return fmt.Errorf("unpurged zero-weight node %q", n.Name)
			}
			for c := n.FirstChild; c != nil; c = c.NextSib {
				if err := zero(c); err != nil {
					return err
				}
			}
			return nil
		}
		if err := zero(b.Root); err != nil {
			return err
		}
	}
	return nil
}

// CheckBalance verifies assigned == removed for every role; valid only
// after evaluation has completed.
func (b *Buffer) CheckBalance() error {
	for role, a := range b.assigned {
		if r := b.removed[role]; r != a {
			return fmt.Errorf("role r%d: assigned %d, removed %d", role+1, a, r)
		}
	}
	for role, r := range b.removed {
		if a := b.assigned[role]; a != r {
			return fmt.Errorf("role r%d: removed %d, assigned %d", role+1, r, a)
		}
	}
	return nil
}

// Serialize writes the subtree of n to s (opening tag, content, closing
// tag; text nodes as character data).
func Serialize(n *Node, s event.Sink) {
	switch n.Kind {
	case KindText:
		s.Text(n.Text)
	case KindElement:
		s.StartElement(n.Name, n.Attrs)
		for c := n.FirstChild; c != nil; c = c.NextSib {
			Serialize(c, s)
		}
		s.EndElement(n.Name)
	case KindRoot:
		for c := n.FirstChild; c != nil; c = c.NextSib {
			Serialize(c, s)
		}
	}
}
