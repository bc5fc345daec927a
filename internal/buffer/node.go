// Package buffer implements the GCX buffer manager: a tree of buffered
// XML nodes annotated with multisets of roles, purged by active garbage
// collection (paper §2).
//
// Invariants maintained here (and property-tested):
//
//   - every node's subtreeWeight equals the sum of role instances plus
//     pins in its subtree (including itself);
//   - a node is unlinked ("purged") as soon as its subtreeWeight reaches
//     zero — deletions take effect immediately, mirroring the paper's
//     reliance on C++ manual memory management;
//   - role instances assigned during projection equal role instances
//     removed by signOffs when evaluation ends (the balance property).
package buffer

import (
	"fmt"
	"strings"

	"gcx/internal/event"
)

// NodeKind discriminates buffered nodes.
type NodeKind uint8

const (
	// KindRoot is the virtual document root (the paper's role r1 target).
	KindRoot NodeKind = iota
	// KindElement is an element node.
	KindElement
	// KindText is a character-data node.
	KindText
)

// Node is a buffered XML node. Children form a doubly linked list so
// that purging is O(1) pointer surgery.
type Node struct {
	Kind NodeKind
	// Closed is set when the node's end tag has been processed (text
	// nodes are born closed).
	Closed bool
	// unlinked marks a purged subtree root, so stale references can
	// detect that the node left the buffer.
	unlinked bool

	// pins counts temporary protections: one while the node is open
	// (its close tag has not arrived) and one per evaluator reference
	// (current loop binding). Pins contribute to subtreeWeight.
	pins int32

	Name  string       // element name (KindElement)
	Attrs []event.Attr // attributes ride along with their element
	Text  string       // character data (KindText)

	Parent     *Node
	FirstChild *Node
	LastChild  *Node
	PrevSib    *Node
	NextSib    *Node

	// roles and moreRoles hold the role multiset as (role, count)
	// pairs: the first two distinct roles inline, any further ones in
	// moreRoles. The pairs are packed — roles[1] is used only when
	// roles[0] is, and moreRoles only when both are — and a pair with a
	// zero count is an empty slot. Most nodes carry one or two roles, so
	// assigning them allocates nothing.
	roles     [2]rolePair
	moreRoles []rolePair

	// subtreeWeight is the number of role instances plus pins in this
	// node's subtree, including the node itself. Zero means the subtree
	// is irrelevant to the remaining evaluation and is purged.
	subtreeWeight int64

	// subtreeNodes is the number of buffered element and text nodes in
	// this subtree including the node itself (the virtual root does not
	// count itself).
	subtreeNodes int64

	// bytes is the estimated resident size of this node alone (set at
	// link time; see nodeBytes).
	bytes int64

	// matchEpoch and matchSlot are the path matcher's dedup mark: the
	// node was reached in the match pass numbered matchEpoch, at index
	// matchSlot of that pass's output (see Buffer.nextEpoch).
	matchEpoch uint32
	matchSlot  int32
}

// rolePair is one entry of a node's role multiset. 32-bit counts
// suffice: the preprojector assigns one instance per live derivation
// item, so a count near 2^31 would need billions of items in memory.
type rolePair struct {
	role, count int32
}

// numRoles returns the number of distinct roles on the node.
func (n *Node) numRoles() int {
	switch {
	case n.roles[0].count == 0:
		return 0
	case n.roles[1].count == 0:
		return 1
	}
	return 2 + len(n.moreRoles)
}

// rolePairAt returns the i-th pair of the packed sequence roles, moreRoles.
func (n *Node) rolePairAt(i int) *rolePair {
	if i < len(n.roles) {
		return &n.roles[i]
	}
	return &n.moreRoles[i-len(n.roles)]
}

// findRole returns the index of role's pair, or -1.
func (n *Node) findRole(role int32) int {
	for i, k := 0, n.numRoles(); i < k; i++ {
		if n.rolePairAt(i).role == role {
			return i
		}
	}
	return -1
}

// addRoles adds count instances of role to the multiset.
func (n *Node) addRoles(role, count int32) {
	if i := n.findRole(role); i >= 0 {
		n.rolePairAt(i).count += count
		return
	}
	p := rolePair{role: role, count: count}
	if k := n.numRoles(); k < len(n.roles) {
		n.roles[k] = p
	} else {
		n.moreRoles = append(n.moreRoles, p)
	}
}

// removeRoles drops count instances from the pair at index i; a pair
// whose count reaches zero is swap-deleted with the last pair.
func (n *Node) removeRoles(i int, count int32) {
	last := n.numRoles() - 1
	p := n.rolePairAt(i)
	if p.count -= count; p.count != 0 {
		return
	}
	*p = *n.rolePairAt(last)
	if last >= len(n.roles) {
		n.moreRoles = n.moreRoles[:len(n.moreRoles)-1]
	} else {
		n.roles[last] = rolePair{}
	}
}

// RoleCount returns the number of instances of role on the node.
func (n *Node) RoleCount(role int) int {
	if i := n.findRole(int32(role)); i >= 0 {
		return int(n.rolePairAt(i).count)
	}
	return 0
}

// RoleTotal returns the total number of role instances on the node
// itself (excluding pins and descendants).
func (n *Node) RoleTotal() int {
	total := 0
	for i, k := 0, n.numRoles(); i < k; i++ {
		total += int(n.rolePairAt(i).count)
	}
	return total
}

// Roles returns the role ids present on this node in ascending order.
func (n *Node) Roles() []int {
	k := n.numRoles()
	if k == 0 {
		return nil
	}
	ids := make([]int, k)
	for i := range ids {
		ids[i] = int(n.rolePairAt(i).role)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; tiny slices
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids
}

// InBuffer reports whether the node is still linked into the buffer.
func (n *Node) InBuffer() bool {
	for p := n; p != nil; p = p.Parent {
		if p.unlinked {
			return false
		}
		if p.Kind == KindRoot {
			return true
		}
	}
	return false
}

// Attr returns the value of the named attribute.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// StringValue returns the concatenated text of the subtree (the XPath
// string value of an element, or the text of a text node).
func (n *Node) StringValue() string {
	if n.Kind == KindText {
		return n.Text
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == KindText {
		b.WriteString(n.Text)
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSib {
		c.appendText(b)
	}
}

// label renders the node for dumps: name{r2,r5}.
func (n *Node) label(roleName func(int) string) string {
	var b strings.Builder
	switch n.Kind {
	case KindRoot:
		b.WriteString("/")
	case KindElement:
		b.WriteString(n.Name)
	case KindText:
		fmt.Fprintf(&b, "%q", n.Text)
	}
	ids := n.Roles()
	if len(ids) > 0 {
		b.WriteString("{")
		for i, id := range ids {
			if i > 0 {
				b.WriteString(",")
			}
			name := fmt.Sprintf("r%d", id+1)
			if roleName != nil {
				name = roleName(id)
			}
			b.WriteString(name)
			if c := n.RoleCount(id); c > 1 {
				fmt.Fprintf(&b, "×%d", c)
			}
		}
		b.WriteString("}")
	}
	return b.String()
}
