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
	Kind  NodeKind
	Name  string       // element name (KindElement)
	Attrs []event.Attr // attributes ride along with their element
	Text  string       // character data (KindText)

	Parent     *Node
	FirstChild *Node
	LastChild  *Node
	PrevSib    *Node
	NextSib    *Node

	// roles is the role multiset: instance counts per role id. Allocated
	// lazily; most nodes carry one or two roles.
	roles map[int]int

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

	// pins counts temporary protections: one while the node is open
	// (its close tag has not arrived) and one per evaluator reference
	// (current loop binding). Pins contribute to subtreeWeight.
	pins int

	// Closed is set when the node's end tag has been processed (text
	// nodes are born closed).
	Closed bool

	// unlinked marks a purged subtree root, so stale references can
	// detect that the node left the buffer.
	unlinked bool
}

// RoleCount returns the number of instances of role on the node.
func (n *Node) RoleCount(role int) int { return n.roles[role] }

// RoleTotal returns the total number of role instances on the node
// itself (excluding pins and descendants).
func (n *Node) RoleTotal() int {
	total := 0
	for _, c := range n.roles {
		total += c
	}
	return total
}

// Roles returns the role ids present on this node in ascending order.
func (n *Node) Roles() []int {
	if len(n.roles) == 0 {
		return nil
	}
	ids := make([]int, 0, len(n.roles))
	for id := range n.roles {
		ids = append(ids, id)
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
			if c := n.roles[id]; c > 1 {
				fmt.Fprintf(&b, "×%d", c)
			}
		}
		b.WriteString("}")
	}
	return b.String()
}
