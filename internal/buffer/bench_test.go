package buffer

import (
	"testing"

	"gcx/internal/xpath"
)

// BenchmarkAppendAssignPurge measures the full lifecycle of a buffered
// subtree: append, role assignment, sign-off, cascade purge — the hot
// path of streaming evaluation.
func BenchmarkAppendAssignPurge(b *testing.B) {
	dos := xpath.Path{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep()}}
	b.ReportAllocs()
	buf := New()
	for i := 0; i < b.N; i++ {
		item := buf.AppendElement(buf.Root, "item", nil)
		buf.AssignRole(item, 0)
		for j := 0; j < 4; j++ {
			c := buf.AppendElement(item, "c", nil)
			buf.AssignRole(c, 0)
			buf.CloseNode(c)
		}
		buf.CloseNode(item)
		buf.SignOffNow(item, dos, 0)
	}
	if buf.CurrentNodes != 0 {
		b.Fatal("buffer did not drain")
	}
}

// BenchmarkDeepChainPurge measures the ancestor-walk costs on deep
// trees (counter updates are O(depth)).
func BenchmarkDeepChainPurge(b *testing.B) {
	b.ReportAllocs()
	buf := New()
	for i := 0; i < b.N; i++ {
		cur := buf.Root
		var chain []*Node
		for d := 0; d < 32; d++ {
			cur = buf.AppendElement(cur, "d", nil)
			chain = append(chain, cur)
		}
		buf.AssignRole(cur, 0)
		for j := len(chain) - 1; j >= 0; j-- {
			buf.CloseNode(chain[j])
		}
		buf.RemoveRole(cur, 0, 1) // cascades the whole chain away
	}
	if buf.CurrentNodes != 0 {
		b.Fatal("buffer did not drain")
	}
}

// BenchmarkMatches measures sign-off path evaluation over a wide
// buffered section (the join workload's bookkeeping).
func BenchmarkMatches(b *testing.B) {
	buf := New()
	sec := buf.AppendElement(buf.Root, "sec", nil)
	buf.AssignRole(sec, 0)
	for i := 0; i < 1000; i++ {
		n := buf.AppendElement(sec, "t", nil)
		buf.AssignRole(n, 1)
		buf.CloseNode(n)
	}
	buf.CloseNode(sec)
	path := xpath.Path{Steps: []xpath.Step{xpath.ChildStep("t")}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(buf.Matches(sec, path)); got != 1000 {
			b.Fatalf("got %d", got)
		}
	}
}
