package xpath

import "testing"

func TestStepString(t *testing.T) {
	cases := []struct {
		step Step
		want string
	}{
		{ChildStep("bib"), "bib"},
		{WildcardStep(), "*"},
		{Step{Axis: Child, Test: Test{Kind: TestName, Name: "price"}, FirstOnly: true}, "price[1]"},
		{DescendantOrSelfNodeStep(), "descendant-or-self::node()"},
		{Step{Axis: Descendant, Test: Test{Kind: TestName, Name: "item"}}, "descendant::item"},
		{AttributeStep("id"), "@id"},
		{Step{Axis: Child, Test: Test{Kind: TestText}}, "text()"},
		{Step{Axis: Self, Test: Test{Kind: TestNode}}, "self::node()"},
	}
	for _, c := range cases {
		if got := c.step.String(); got != c.want {
			t.Errorf("Step.String() = %q, want %q", got, c.want)
		}
	}
}

// TestPaperRolePathStrings checks that the seven projection paths of the
// paper's running example render exactly as printed in the paper.
func TestPaperRolePathStrings(t *testing.T) {
	paths := []struct {
		p    Path
		want string
	}{
		{Path{}, "/"},
		{Path{Steps: []Step{ChildStep("bib")}}, "/bib"},
		{Path{Steps: []Step{ChildStep("bib"), WildcardStep()}}, "/bib/*"},
		{Path{Steps: []Step{ChildStep("bib"), WildcardStep(),
			{Axis: Child, Test: Test{Kind: TestName, Name: "price"}, FirstOnly: true}}},
			"/bib/*/price[1]"},
		{Path{Steps: []Step{ChildStep("bib"), WildcardStep(), DescendantOrSelfNodeStep()}},
			"/bib/*/descendant-or-self::node()"},
		{Path{Steps: []Step{ChildStep("bib"), ChildStep("book")}}, "/bib/book"},
		{Path{Steps: []Step{ChildStep("bib"), ChildStep("book"), ChildStep("title"),
			DescendantOrSelfNodeStep()}},
			"/bib/book/title/descendant-or-self::node()"},
	}
	for i, c := range paths {
		if got := c.p.String(); got != c.want {
			t.Errorf("r%d: String() = %q, want %q", i+1, got, c.want)
		}
	}
}

func TestTestMatching(t *testing.T) {
	name := Test{Kind: TestName, Name: "book"}
	if !name.MatchesElement("book") || name.MatchesElement("article") {
		t.Error("TestName matching wrong")
	}
	if name.MatchesText() {
		t.Error("TestName must not match text")
	}
	wc := Test{Kind: TestWildcard}
	if !wc.MatchesElement("anything") || wc.MatchesText() {
		t.Error("wildcard matching wrong")
	}
	txt := Test{Kind: TestText}
	if txt.MatchesElement("a") || !txt.MatchesText() {
		t.Error("text() matching wrong")
	}
	node := Test{Kind: TestNode}
	if !node.MatchesElement("a") || !node.MatchesText() {
		t.Error("node() matching wrong")
	}
}

// TestWithoutLastStepAppendKeepsOriginal: WithoutLastStep shares the
// receiver's steps, so appending to the result must copy rather than
// overwrite the receiver's last step.
func TestWithoutLastStepAppendKeepsOriginal(t *testing.T) {
	q := Path{Steps: []Step{ChildStep("a"), ChildStep("b"), AttributeStep("id")}}
	r := q.WithoutLastStep()
	r.Steps = append(r.Steps, ChildStep("c"))
	if q.String() != "/a/b/@id" {
		t.Fatalf("appending to WithoutLastStep changed the original: %q", q.String())
	}
	if r.String() != "/a/b/c" {
		t.Fatalf("appended path = %q", r.String())
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{Steps: []Step{ChildStep("a")}}
	q := p.Append(ChildStep("b"), AttributeStep("id"))
	if len(p.Steps) != 1 {
		t.Fatal("Append mutated receiver")
	}
	if q.String() != "/a/b/@id" {
		t.Fatalf("q = %q", q.String())
	}
	if !q.EndsWithAttribute() {
		t.Error("EndsWithAttribute false")
	}
	r := q.WithoutLastStep()
	if r.String() != "/a/b" || q.String() != "/a/b/@id" {
		t.Error("WithoutLastStep wrong or mutated receiver")
	}
	if !r.Equal(Path{Steps: []Step{ChildStep("a"), ChildStep("b")}}) {
		t.Error("Equal false negative")
	}
	if r.Equal(p) {
		t.Error("Equal false positive")
	}
	if (Path{}).String() != "/" {
		t.Error("empty path string")
	}
	if (Path{}).RelString() != "." {
		t.Error("empty rel string")
	}
	if q.RelString() != "a/b/@id" {
		t.Errorf("RelString = %q", q.RelString())
	}
	if !q.WithoutLastStep().Append(DescendantOrSelfNodeStep()).HasDescendantAxis() {
		t.Error("HasDescendantAxis false negative")
	}
	if q.HasDescendantAxis() {
		t.Error("HasDescendantAxis false positive")
	}
	txt := Path{Steps: []Step{ChildStep("a"), {Axis: Child, Test: Test{Kind: TestText}}}}
	if !txt.EndsWithText() {
		t.Error("EndsWithText false negative")
	}
}
