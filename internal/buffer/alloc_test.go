package buffer

import (
	"testing"
	"unsafe"

	"gcx/internal/xpath"
)

// TestNodeSize pins the Node layout: nodes are carved out of slabs by
// the hundred, so every word added here is paid once per buffered node.
func TestNodeSize(t *testing.T) {
	const limit = 184
	if got := unsafe.Sizeof(Node{}); got > limit {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d bytes, want at most %d", got, limit)
	}
}

// TestAppendAssignPurgeAllocs: once the matcher scratch and the balance
// counters have grown, the append → assign → sign-off → purge cycle of
// BenchmarkAppendAssignPurge allocates nothing per subtree (node slabs
// are amortized over slabSize nodes).
func TestAppendAssignPurgeAllocs(t *testing.T) {
	dos := xpath.Path{Steps: []xpath.Step{xpath.DescendantOrSelfNodeStep()}}
	buf := New()
	cycle := func() {
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
	cycle() // warm-up: grows the scratch slices and counters
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("append/assign/purge cycle: %v allocs per run, want 0", got)
	}
	if buf.CurrentNodes != 0 {
		t.Fatal("buffer did not drain")
	}
}
