package rplustree

import (
	"spatialanon/internal/attr"
)

// This file implements copy-on-write leaf snapshots: the mechanism the
// serving layer (internal/serve) uses to publish an immutable view of
// the leaf summary after every group commit without paying an O(n)
// copy per batch.
//
// Leaves() aliases tree storage, so a caller that wants a snapshot
// surviving further mutation must copy every leaf — O(n) per
// snapshot, which dominates a write path that publishes after every
// batch. SnapshotLeaves instead copies only the leaves whose content
// changed since its previous call and shares the earlier copies for
// the rest. The cost depends on whether the tree's structure changed
// in between:
//
//   - No split, underflow repair or root reset since the previous
//     snapshot: the leaf order and every leaf's position in it are
//     unchanged, so the new snapshot is the previous one's header
//     slice cloned with one copy, with the changed leaves' entries
//     overwritten by fresh copies — O(batch) plus one header copy, no
//     tree walk.
//   - Otherwise: a full walk in trie order, copying changed leaves and
//     reusing the previous copies of unchanged ones — O(leaves +
//     batch).
//
// Change detection is a per-leaf version counter (node.ver) bumped,
// through touch, at every site that mutates a leaf's payload —
// insertIntoLeaf, bulkAppendLeaf and Delete; splits and underflow
// repair mint new nodes or route through those sites, so no mutation
// escapes the counter. Each snapshot stamps the leaves it copied with
// their version (node.snapVer), and while tracking is on a leaf is in
// the tree's dirty list exactly when its version has moved past that
// stamp: touch appends a leaf on the bump that makes ver differ from
// snapVer, so the list needs no membership field on node. Structural
// changes (replaceWithPair, repairUnderflow) switch tracking off until
// the next snapshot, which then walks the tree; so the dirty list is
// bounded by the live leaves and never holds a detached node. Tracking
// starts with a tree's first snapshot: bulk loads and trees that are
// never snapshotted pay nothing.
//
// Positions come from the last full walk: it stamps every leaf it
// emits with the walk's generation (node.snapGen) and output index
// (node.snapIdx). Generation 0 is the zero value of every freshly
// minted node, so a leaf carrying the live generation was emitted by
// that walk, and as long as no structural change has happened since,
// it still sits at the same index of every later snapshot.

// SnapshotLeaves returns every non-empty leaf in trie order, like
// Leaves, but with MBRs and record slices OWNED by the caller: they
// never alias tree storage, so the returned slice remains a
// consistent snapshot under any further mutation. prev should be the
// slice returned by this tree's previous SnapshotLeaves call (or nil
// for a full copy); entries for leaves unchanged since then are
// reused from it, so the caller must treat every returned LeafView as
// immutable and shared. Any other prev — an older snapshot, one from
// another tree — is ignored and the result is a full copy.
//
// Like all tree reads, SnapshotLeaves is not safe for concurrent use
// with mutation: it is meant to be called from the one goroutine that
// owns the tree (the serving layer's committer), which then hands the
// immutable result to any number of readers.
func (t *Tree) SnapshotLeaves(prev []LeafView) []LeafView {
	out, _ := t.snapshotLeaves(prev)
	return out
}

// snapshotLeaves is SnapshotLeaves, also reporting whether the
// no-walk fast path produced the result.
func (t *Tree) snapshotLeaves(prev []LeafView) (out []LeafView, fast bool) {
	if !t.isLastSnapshot(prev) {
		prev = nil
	}
	if t.tracking && prev != nil {
		out, fast = t.patchSnapshot(prev)
	}
	if !fast {
		out = t.walkSnapshot(prev)
	}
	clear(t.dirty)
	t.dirty = t.dirty[:0]
	t.tracking = true
	t.lastLen = len(out)
	t.lastSnap = nil
	if len(out) > 0 {
		t.lastSnap = &out[0]
	}
	return out, fast
}

// isLastSnapshot reports whether prev is the slice this tree's most
// recent SnapshotLeaves call returned; when that was empty, any empty
// prev matches.
func (t *Tree) isLastSnapshot(prev []LeafView) bool {
	if t.snapGen == 0 || len(prev) != t.lastLen {
		return false
	}
	return len(prev) == 0 || &prev[0] == t.lastSnap
}

// touch records a content mutation of leaf: it bumps the version and,
// while tracking, lists the leaf as dirty on the first bump since the
// leaf was last snapshotted.
func (t *Tree) touch(leaf *node) {
	if t.tracking && leaf.ver == leaf.snapVer {
		t.dirty = append(t.dirty, leaf)
	}
	leaf.ver++
}

// restructured notes a change in the set or order of leaves: the next
// snapshot must walk the tree, so dirty tracking stops until then.
func (t *Tree) restructured() {
	if t.tracking {
		t.tracking = false
		clear(t.dirty)
		t.dirty = t.dirty[:0]
	}
}

// patchSnapshot is the fast path: prev is the last snapshot and the
// leaf order has not changed since, so the result is prev with the
// dirty leaves' entries replaced. ok is false (and nothing is
// stamped) if some dirty leaf has no entry in prev — it was empty at
// the last walk, or is empty now — which changes the leaf count.
func (t *Tree) patchSnapshot(prev []LeafView) (out []LeafView, ok bool) {
	recs := 0
	for _, n := range t.dirty {
		if len(n.recs) == 0 || n.snapGen != t.snapGen {
			return nil, false
		}
		recs += len(n.recs)
	}
	a := newLeafArena(len(t.dirty), recs, t.cfg.Schema.Dims())
	out = make([]LeafView, len(prev))
	copy(out, prev)
	for _, n := range t.dirty {
		out[n.snapIdx] = a.own(n)
		n.snapVer = n.ver
	}
	return out, true
}

// walkSnapshot is the full walk: every leaf in trie order, reusing
// prev's entry for each leaf unchanged since it was copied and
// restamping every leaf with a new generation. prev is nil or the
// last snapshot.
func (t *Tree) walkSnapshot(prev []LeafView) []LeafView {
	gen := t.snapGen
	t.snapGen++
	cur := t.snapGen
	reusable := func(n *node) bool {
		return n.snapGen == gen && n.snapVer == n.ver && n.snapIdx < len(prev)
	}
	// First pass: size the snapshot, so the copied leaves land in two
	// exactly sized arenas (see leafArena).
	leaves, changedLeaves, changedRecs := 0, 0, 0
	t.walkLeaves(t.root, func(n *node) {
		if len(n.recs) == 0 {
			return
		}
		leaves++
		if !reusable(n) {
			changedLeaves++
			changedRecs += len(n.recs)
		}
	})
	a := newLeafArena(changedLeaves, changedRecs, t.cfg.Schema.Dims())
	out := make([]LeafView, 0, leaves)
	t.walkLeaves(t.root, func(n *node) {
		// Every leaf, even an empty one, is stamped clean so its next
		// mutation lists it as dirty; an empty leaf keeps an old
		// generation, which tells the fast path it has no entry.
		if len(n.recs) == 0 {
			n.snapVer = n.ver
			return
		}
		if reusable(n) {
			out = append(out, prev[n.snapIdx])
		} else {
			out = append(out, a.own(n))
		}
		n.snapGen = cur
		n.snapVer = n.ver
		n.snapIdx = len(out) - 1
	})
	return out
}

// leafArena holds the copies one snapshot makes: one record array and
// one interval array instead of two allocations per copied leaf. It
// is sized exactly and every slice it hands out is capped with a full
// three-index expression, so no append can ever reallocate it or let
// one leaf's slice reach into the next; sharing the backing is safe
// because every LeafView is immutable once returned.
type leafArena struct {
	recs  []attr.Record
	boxes []attr.Interval
}

func newLeafArena(leaves, recs, dims int) leafArena {
	return leafArena{
		recs:  make([]attr.Record, 0, recs),
		boxes: make([]attr.Interval, 0, leaves*dims),
	}
}

// own copies leaf n's MBR and records into the arena.
func (a *leafArena) own(n *node) LeafView {
	rs := len(a.recs)
	a.recs = append(a.recs, n.recs...)
	re := len(a.recs)
	bs := len(a.boxes)
	a.boxes = append(a.boxes, n.mbr...)
	be := len(a.boxes)
	return LeafView{
		MBR:     attr.Box(a.boxes[bs:be:be]),
		Records: a.recs[rs:re:re],
	}
}
