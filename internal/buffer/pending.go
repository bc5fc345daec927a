package buffer

import "gcx/internal/xpath"

// pendingSignOff is a deferred sign-off: its base node's subtree was not
// fully read when the signOff statement executed, so the role removal
// waits until the close tag has arrived (DESIGN.md §3, "deferred mode").
// This timing reproduces the paper's Fig. 3(c) observation that 23 nodes
// are still buffered when </bib> is read.
type pendingSignOff struct {
	base *Node
	path xpath.Path
	role int
}

// SignOffNow removes one instance of role per derivation of path from
// base, for every matched node, and garbage-collects. It returns the
// number of instances removed. The caller must ensure that base's
// subtree is completely buffered (base.Closed), otherwise instances
// assigned to still-streaming nodes would be missed.
func (b *Buffer) SignOffNow(base *Node, path xpath.Path, role int) int {
	total := 0
	for _, m := range b.Matches(base, path) {
		b.RemoveRole(m.Node, role, m.Count)
		total += m.Count
	}
	return total
}

// QueueSignOff registers a sign-off for later execution. If base is
// already closed it executes immediately.
func (b *Buffer) QueueSignOff(base *Node, path xpath.Path, role int) {
	if base.Closed {
		b.SignOffNow(base, path, role)
		return
	}
	b.pending = append(b.pending, pendingSignOff{base: base, path: path, role: role})
}

// DrainPending executes all queued sign-offs whose base subtree is now
// complete and returns how many were executed. The engine calls this
// after every blocking read and at end of evaluation.
func (b *Buffer) DrainPending() int {
	if len(b.pending) == 0 {
		return 0
	}
	executed := 0
	remaining := b.pending[:0]
	for _, p := range b.pending {
		if p.base.Closed {
			b.SignOffNow(p.base, p.path, p.role)
			executed++
		} else {
			remaining = append(remaining, p)
		}
	}
	b.pending = remaining
	return executed
}

// PendingCount returns the number of queued sign-offs.
func (b *Buffer) PendingCount() int { return len(b.pending) }
