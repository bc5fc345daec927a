// Package xpath defines the path model shared by the whole system: the
// XPath fragment of GCX (axes child, descendant, descendant-or-self and
// self; node tests by name, wildcard, text() and node(); the
// first-witness predicate [1]; attribute steps).
//
// Absolute paths over this model are exactly the paper's projection
// paths (its Fig. 3(a) role browser shows paths such as
// /bib/∗/price[1] and /bib/book/title/descendant-or-self::node()), and
// relative paths are the arguments of signOff statements.
package xpath

import (
	"fmt"
	"strings"
)

// Axis is an XPath axis.
type Axis uint8

const (
	// Child selects the children of the context node.
	Child Axis = iota
	// Descendant selects all proper descendants.
	Descendant
	// DescendantOrSelf selects the context node and all descendants.
	DescendantOrSelf
	// Self selects the context node itself.
	Self
	// Attribute selects a named attribute of the context node. In this
	// system attributes are properties of element nodes (they are
	// buffered and purged with their element), so Attribute steps are
	// always the final step of a path and never occur in projection
	// paths.
	Attribute
)

func (a Axis) String() string {
	switch a {
	case Child:
		return "child"
	case Descendant:
		return "descendant"
	case DescendantOrSelf:
		return "descendant-or-self"
	case Self:
		return "self"
	case Attribute:
		return "attribute"
	default:
		return fmt.Sprintf("Axis(%d)", uint8(a))
	}
}

// TestKind is the kind of node test of a step.
type TestKind uint8

const (
	// TestName matches element nodes with a specific name.
	TestName TestKind = iota
	// TestWildcard matches any element node (the paper's ∗).
	TestWildcard
	// TestText matches text nodes (text()).
	TestText
	// TestNode matches any node (node()).
	TestNode
)

// Test is a node test.
type Test struct {
	Kind TestKind
	// Name is the element name for TestName, or the attribute name when
	// the step's axis is Attribute.
	Name string
}

// MatchesElement reports whether the test accepts an element with the
// given name.
func (t Test) MatchesElement(name string) bool {
	switch t.Kind {
	case TestName:
		return t.Name == name
	case TestWildcard, TestNode:
		return true
	default:
		return false
	}
}

// MatchesText reports whether the test accepts a text node.
func (t Test) MatchesText() bool {
	return t.Kind == TestText || t.Kind == TestNode
}

func (t Test) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestWildcard:
		return "*"
	case TestText:
		return "text()"
	case TestNode:
		return "node()"
	default:
		return fmt.Sprintf("Test(%d)", uint8(t.Kind))
	}
}

// Step is one location step.
type Step struct {
	Axis Axis
	Test Test
	// FirstOnly marks the paper's first-witness predicate [1]: only the
	// first node (in document order) matched within each context node is
	// selected. It is produced by existence conditions (role r4 in the
	// paper: /bib/∗/price[1]).
	FirstOnly bool
}

// String renders the step in the compact notation the paper uses:
// child::name as "name", child::* as "*", attribute::n as "@n", other
// axes spelled out.
func (s Step) String() string {
	var b strings.Builder
	switch {
	case s.Axis == Child:
		b.WriteString(s.Test.String())
	case s.Axis == Attribute:
		b.WriteString("@")
		b.WriteString(s.Test.Name)
	default:
		b.WriteString(s.Axis.String())
		b.WriteString("::")
		b.WriteString(s.Test.String())
	}
	if s.FirstOnly {
		b.WriteString("[1]")
	}
	return b.String()
}

// Path is a sequence of steps. Whether it is absolute (rooted at the
// virtual document root) or relative (rooted at a variable binding) is
// determined by its use site, not by the type.
type Path struct {
	Steps []Step
}

// ChildStep returns a child::name step.
func ChildStep(name string) Step {
	return Step{Axis: Child, Test: Test{Kind: TestName, Name: name}}
}

// WildcardStep returns a child::* step.
func WildcardStep() Step {
	return Step{Axis: Child, Test: Test{Kind: TestWildcard}}
}

// DescendantOrSelfNodeStep returns descendant-or-self::node(), the step
// appended to output expressions (roles r5 and r7 in the paper).
func DescendantOrSelfNodeStep() Step {
	return Step{Axis: DescendantOrSelf, Test: Test{Kind: TestNode}}
}

// AttributeStep returns an attribute::name step.
func AttributeStep(name string) Step {
	return Step{Axis: Attribute, Test: Test{Kind: TestName, Name: name}}
}

// IsEmpty reports whether the path has no steps (a self path).
func (p Path) IsEmpty() bool { return len(p.Steps) == 0 }

// Append returns a new path with the given steps appended; the receiver
// is not modified.
func (p Path) Append(steps ...Step) Path {
	out := make([]Step, 0, len(p.Steps)+len(steps))
	out = append(out, p.Steps...)
	out = append(out, steps...)
	return Path{Steps: out}
}

// EndsWithAttribute reports whether the final step is an attribute step.
func (p Path) EndsWithAttribute() bool {
	return len(p.Steps) > 0 && p.Steps[len(p.Steps)-1].Axis == Attribute
}

// EndsWithText reports whether the final step is a text() test.
func (p Path) EndsWithText() bool {
	return len(p.Steps) > 0 && p.Steps[len(p.Steps)-1].Test.Kind == TestText
}

// WithoutLastStep returns the path with its final step removed. The
// result shares p's steps without copying; its capacity is cut at its
// length, so appending to it copies instead of overwriting p's last
// step. Callers must not assign to its Steps elements.
func (p Path) WithoutLastStep() Path {
	if len(p.Steps) == 0 {
		return p
	}
	n := len(p.Steps) - 1
	return Path{Steps: p.Steps[:n:n]}
}

// LastStep returns the final step. It panics on an empty path.
func (p Path) LastStep() Step { return p.Steps[len(p.Steps)-1] }

// String renders the path in the paper's notation. An empty path renders
// as "/" (role r1 in the paper, the document root).
func (p Path) String() string {
	if len(p.Steps) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, s := range p.Steps {
		b.WriteString("/")
		b.WriteString(s.String())
	}
	return b.String()
}

// RelString renders the path as a relative path suffix (no leading "/"
// for the first step), used when printing signOff arguments such as
// "$x/price[1]".
func (p Path) RelString() string {
	if len(p.Steps) == 0 {
		return "."
	}
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "/")
}

// Equal reports structural equality of two paths.
func (p Path) Equal(q Path) bool {
	if len(p.Steps) != len(q.Steps) {
		return false
	}
	for i := range p.Steps {
		if p.Steps[i] != q.Steps[i] {
			return false
		}
	}
	return true
}

// HasDescendantAxis reports whether any step uses a descendant or
// descendant-or-self axis. Such paths can assign a role to the same node
// several times (the paper: "a role can be assigned to a node multiple
// times when queries involve the XPath descendant axis").
func (p Path) HasDescendantAxis() bool {
	for _, s := range p.Steps {
		if s.Axis == Descendant || s.Axis == DescendantOrSelf {
			return true
		}
	}
	return false
}
