package rplustree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// fullLeafCopy is the reference SnapshotLeaves must match: Leaves()
// with every box and record slice deep-copied.
func fullLeafCopy(tr *Tree) []LeafView {
	ls := tr.Leaves()
	out := make([]LeafView, len(ls))
	for i, l := range ls {
		recs := make([]attr.Record, len(l.Records))
		copy(recs, l.Records)
		out[i] = LeafView{MBR: l.MBR.Clone(), Records: recs}
	}
	return out
}

func sameLeafViews(a, b []LeafView) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d leaves != %d leaves", len(a), len(b))
	}
	for i := range a {
		if !a[i].MBR.Equal(b[i].MBR) {
			return fmt.Errorf("leaf %d: MBR %v != %v", i, a[i].MBR, b[i].MBR)
		}
		if len(a[i].Records) != len(b[i].Records) {
			return fmt.Errorf("leaf %d: %d records != %d", i, len(a[i].Records), len(b[i].Records))
		}
		for j := range a[i].Records {
			ra, rb := a[i].Records[j], b[i].Records[j]
			if ra.ID != rb.ID || ra.Sensitive != rb.Sensitive {
				return fmt.Errorf("leaf %d record %d: %+v != %+v", i, j, ra, rb)
			}
			for d := range ra.QI {
				if ra.QI[d] != rb.QI[d] {
					return fmt.Errorf("leaf %d record %d: QI %v != %v", i, j, ra.QI, rb.QI)
				}
			}
		}
	}
	return nil
}

// leafNodes lists the tree's non-empty leaves in trie order: the leaf
// layout a snapshot indexes. The fast path is correct exactly when
// this layout is unchanged since the previous snapshot.
func leafNodes(tr *Tree) []*node {
	var out []*node
	tr.walkLeaves(tr.root, func(n *node) {
		if len(n.recs) > 0 {
			out = append(out, n)
		}
	})
	return out
}

// TestSnapshotLeavesCOW drives a churn workload — inserts that force
// splits, deletes that force underflow repairs, batches of 1 to 25
// operations — and after every batch checks that the incremental
// snapshot is byte-identical to a full deep copy, that it actually
// reuses unchanged leaves, that earlier snapshots stay frozen while
// the tree keeps mutating, and that the no-walk fast path is taken
// exactly on the batches that left the leaf layout alone. This is the
// test that catches a missed version bump or a missed dirty-list
// entry: any mutation site not counted would serve stale leaf
// contents here.
func TestSnapshotLeavesCOW(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]attr.Record{}
	nextID := int64(0)

	var prev []LeafView
	var prevNodes []*node
	var frozen []struct {
		snap []LeafView
		ref  []LeafView
	}
	reused, fastN, walkN := 0, 0, 0

	for batch := 0; batch < 400; batch++ {
		ops := 1 + rng.Intn(25)
		if batch%2 == 0 {
			ops = 1
		}
		for op := 0; op < ops; op++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				r := attr.Record{
					ID: nextID,
					QI: []float64{float64(rng.Intn(60)), float64(rng.Intn(2)), float64(52000 + rng.Intn(500))},
				}
				nextID++
				if err := tr.Insert(r); err != nil {
					t.Fatal(err)
				}
				live[r.ID] = r
			} else {
				var victim attr.Record
				for _, r := range live {
					victim = r
					break
				}
				if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
					t.Fatalf("batch %d: delete of live record %d: found=%v err=%v", batch, victim.ID, found, err)
				}
				delete(live, victim.ID)
			}
		}
		snap, fast := tr.snapshotLeaves(prev)
		ref := fullLeafCopy(tr)
		if err := sameLeafViews(snap, ref); err != nil {
			t.Fatalf("batch %d (fast=%v): incremental snapshot diverges from full copy: %v", batch, fast, err)
		}
		nodes := leafNodes(tr)
		if want := batch > 0 && slices.Equal(prevNodes, nodes); fast != want {
			t.Fatalf("batch %d: fast path %v, want %v", batch, fast, want)
		}
		if fast {
			fastN++
		} else {
			walkN++
		}
		// Count reuse by backing-array identity with the previous
		// snapshot: a reused leaf shares its records array.
		for _, l := range snap {
			for _, p := range prev {
				if len(l.Records) > 0 && len(p.Records) > 0 && &l.Records[0] == &p.Records[0] {
					reused++
					break
				}
			}
		}
		// Keep a few snapshots (with a reference copy taken at the same
		// moment) to check immutability under later churn.
		if batch%67 == 0 {
			refNow := make([]LeafView, len(snap))
			for i, l := range snap {
				recs := make([]attr.Record, len(l.Records))
				copy(recs, l.Records)
				refNow[i] = LeafView{MBR: l.MBR.Clone(), Records: recs}
			}
			frozen = append(frozen, struct {
				snap []LeafView
				ref  []LeafView
			}{snap, refNow})
		}
		prev, prevNodes = snap, nodes
	}

	if reused == 0 {
		t.Fatal("no leaf was ever reused across 400 snapshots — copy-on-write is not engaging")
	}
	if fastN == 0 || walkN < 2 {
		t.Fatalf("fast path taken %d times, full walk %d times: the workload must exercise both", fastN, walkN)
	}
	for i, f := range frozen {
		if err := sameLeafViews(f.snap, f.ref); err != nil {
			t.Fatalf("frozen snapshot %d changed under later mutation: %v", i, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLeavesFastPath pins which batches take the no-walk fast
// path: leaf-content changes do; a split, an underflow repair, a root
// collapse and a tree emptied and then refilled do not. Every
// snapshot must equal a full copy either way.
func TestSnapshotLeavesFastPath(t *testing.T) {
	type step struct {
		name   string
		mutate func(t *testing.T, tr *Tree)
		fast   bool
	}
	nextID := int64(1000)
	// insertAt adds a record at the first record's point of leaf i: it
	// routes to that leaf.
	insertAt := func(t *testing.T, tr *Tree, leaf int) {
		t.Helper()
		qi := append([]float64(nil), tr.Leaves()[leaf].Records[0].QI...)
		nextID++
		if err := tr.Insert(attr.Record{ID: nextID, QI: qi}); err != nil {
			t.Fatal(err)
		}
	}
	del := func(t *testing.T, tr *Tree, r attr.Record) {
		t.Helper()
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	// roomyLeaf is the first leaf that can take one more record
	// without splitting.
	roomyLeaf := func(t *testing.T, tr *Tree) int {
		t.Helper()
		for i, l := range tr.Leaves() {
			if len(l.Records) < tr.cfg.leafCapacity() {
				return i
			}
		}
		t.Fatal("every leaf is full")
		return -1
	}
	inPlace := step{"insert into a leaf with room", func(t *testing.T, tr *Tree) { insertAt(t, tr, roomyLeaf(t, tr)) }, true}
	grid := func(n int) []attr.Record {
		recs := make([]attr.Record, n)
		for i := range recs {
			recs[i] = attr.Record{ID: int64(i), QI: []float64{float64(20 + i), float64(i % 2), float64(52000 + 7*i)}}
		}
		return recs
	}

	cases := []struct {
		name  string
		k     int
		load  []attr.Record
		steps []step
	}{
		{"content only", 3, grid(40), []step{
			inPlace,
			{"delete above k", func(t *testing.T, tr *Tree) {
				for _, l := range tr.Leaves() {
					if len(l.Records) > tr.cfg.BaseK {
						del(t, tr, l.Records[0])
						return
					}
				}
				t.Fatal("no leaf above k")
			}, true},
			{"update within a leaf", func(t *testing.T, tr *Tree) {
				for _, l := range tr.Leaves() {
					if len(l.Records) > tr.cfg.BaseK {
						r := l.Records[0]
						moved := attr.Record{ID: r.ID, QI: append([]float64(nil), l.Records[1].QI...)}
						if found, err := tr.Update(r.ID, r.QI, moved); err != nil || !found {
							t.Fatalf("update: found=%v err=%v", found, err)
						}
						return
					}
				}
				t.Fatal("no leaf above k")
			}, true},
			{"no change", func(t *testing.T, tr *Tree) {}, true},
		}},
		{"split", 3, grid(40), []step{
			{"overflow a leaf", func(t *testing.T, tr *Tree) {
				for before := len(tr.Leaves()); len(tr.Leaves()) == before; {
					insertAt(t, tr, 0)
				}
			}, false},
			inPlace,
		}},
		{"underflow repair", 3, grid(40), []step{
			{"drain a leaf below k", func(t *testing.T, tr *Tree) {
				l := tr.Leaves()[1]
				for i := 0; i <= len(l.Records)-tr.cfg.BaseK; i++ {
					del(t, tr, l.Records[i])
				}
			}, false},
			inPlace,
		}},
		{"root collapse", 2, grid(5), []step{
			{"delete down to a root leaf", func(t *testing.T, tr *Tree) {
				if tr.Height() != 2 {
					t.Fatalf("setup: height %d, want 2", tr.Height())
				}
				for _, r := range grid(5)[:4] {
					del(t, tr, r)
				}
				if tr.Height() != 1 {
					t.Fatalf("height %d after deletes, want a collapsed root", tr.Height())
				}
			}, false},
		}},
		{"emptied and refilled", 3, grid(3), []step{
			{"empty the root leaf", func(t *testing.T, tr *Tree) {
				for _, r := range grid(3) {
					del(t, tr, r)
				}
			}, false},
			{"refill it", func(t *testing.T, tr *Tree) {
				if err := tr.Insert(grid(1)[0]); err != nil {
					t.Fatal(err)
				}
			}, false},
			inPlace,
			{"empty and refill within one batch", func(t *testing.T, tr *Tree) {
				for _, l := range tr.Leaves() {
					for _, r := range l.Records {
						del(t, tr, r)
					}
				}
				if err := tr.Insert(grid(2)[1]); err != nil {
					t.Fatal(err)
				}
			}, true},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := New(testConfig(c.k))
			if err != nil {
				t.Fatal(err)
			}
			insertAll(t, tr, c.load)
			prev := tr.SnapshotLeaves(nil)
			for _, s := range c.steps {
				s.mutate(t, tr)
				snap, fast := tr.snapshotLeaves(prev)
				if fast != s.fast {
					t.Fatalf("%s: fast path %v, want %v", s.name, fast, s.fast)
				}
				if err := sameLeafViews(snap, fullLeafCopy(tr)); err != nil {
					t.Fatalf("%s: snapshot diverges from full copy: %v", s.name, err)
				}
				prev = snap
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotLeavesStalePrev: a prev that is not the tree's last
// snapshot — one two generations old, or one from another tree with
// the same leaf count — must be ignored, not reused.
func TestSnapshotLeavesStalePrev(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var inserted []attr.Record
	load := func(tr *Tree, n int) {
		for i := 0; i < n; i++ {
			r := attr.Record{ID: int64(len(inserted)), QI: []float64{float64(rng.Intn(60)), float64(rng.Intn(2)), float64(52000 + rng.Intn(500))}}
			if err := tr.Insert(r); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, r)
		}
	}
	tr, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	load(tr, 200)
	s1 := tr.SnapshotLeaves(nil)
	load(tr, 30)
	s2 := tr.SnapshotLeaves(s1)
	load(tr, 1)
	tr.SnapshotLeaves(s2)
	load(tr, 1)
	if err := sameLeafViews(tr.SnapshotLeaves(s1), fullLeafCopy(tr)); err != nil {
		t.Fatalf("snapshot two generations old reused: %v", err)
	}

	// A foreign tree of the same shape whose records carry other IDs.
	other, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range inserted {
		if err := other.Insert(attr.Record{ID: r.ID + 1_000_000, QI: r.QI}); err != nil {
			t.Fatal(err)
		}
	}
	foreign := other.SnapshotLeaves(nil)
	last := tr.SnapshotLeaves(nil)
	load(tr, 1)
	if len(foreign) != len(last) {
		t.Fatalf("setup: foreign snapshot has %d leaves, want %d", len(foreign), len(last))
	}
	if err := sameLeafViews(tr.SnapshotLeaves(foreign), fullLeafCopy(tr)); err != nil {
		t.Fatalf("snapshot of another tree reused: %v", err)
	}
}

// TestNodeSize pins node to the 160-byte allocation size class. One
// more bookkeeping field moves every node to the 176-byte class,
// which costs about 2% of bulk-load heap bytes per record.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 160 {
		t.Fatalf("node is %d bytes, budget 160", got)
	}
}

// FuzzSnapshotLeaves drives an operation tape (2 bytes per op:
// insert, delete, or snapshot with the last, an older, or no prev)
// and checks every snapshot against a full copy and the fast path
// against the leaf layout. Runs over the seed corpus under go test;
// `go test -fuzz FuzzSnapshotLeaves ./internal/rplustree` explores
// further.
func FuzzSnapshotLeaves(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 0, 4, 1, 9, 0, 9, 0})
	f.Add([]byte{10, 1, 20, 2, 30, 3, 40, 4, 50, 5, 60, 6, 9, 0, 4, 0, 9, 0, 4, 0, 4, 0, 9, 0})
	f.Add([]byte{255, 254, 253, 252, 1, 2, 3, 4, 200, 200, 200, 200, 9, 3, 14, 9, 19, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4096 {
			tape = tape[:4096]
		}
		tr, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 2})
		if err != nil {
			t.Fatal(err)
		}
		var live []attr.Record
		var snaps [][]LeafView
		var prevNodes []*node
		nextID := int64(0)
		for i := 0; i+1 < len(tape); i += 2 {
			a, b := tape[i], tape[i+1]
			switch a % 5 {
			case 4: // snapshot
				var prev []LeafView
				if len(snaps) > 0 {
					switch b % 3 {
					case 0:
						prev = snaps[len(snaps)-1]
					case 1:
						prev = snaps[int(b)%len(snaps)]
					}
				}
				snap, fast := tr.snapshotLeaves(prev)
				if err := sameLeafViews(snap, fullLeafCopy(tr)); err != nil {
					t.Fatalf("op %d: snapshot diverges from full copy: %v", i/2, err)
				}
				nodes := leafNodes(tr)
				isLast := len(snaps) > 0 && len(prev) == len(snaps[len(snaps)-1]) && (len(prev) == 0 || &prev[0] == &snaps[len(snaps)-1][0])
				if fast && !(isLast && slices.Equal(prevNodes, nodes)) {
					t.Fatalf("op %d: fast path taken with a stale prev or a changed leaf layout", i/2)
				}
				snaps, prevNodes = append(snaps, snap), nodes
			case 3: // delete
				if len(live) > 0 {
					j := int(b) % len(live)
					victim := live[j]
					live = append(live[:j], live[j+1:]...)
					if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
						t.Fatalf("delete of live record %d failed", victim.ID)
					}
					continue
				}
				fallthrough
			default: // insert
				r := attr.Record{
					ID: nextID,
					QI: []float64{float64(a), float64(b % 2), float64(52000 + int(b)*8)},
				}
				nextID++
				live = append(live, r)
				if err := tr.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSnapshotLeavesFirstCallCopies pins the generation guard: the
// first snapshot of a tree must ignore whatever prev it is handed
// (freshly minted nodes carry zero-valued stamps that must never
// alias a foreign slice).
func TestSnapshotLeavesFirstCallCopies(t *testing.T) {
	tr, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tr.Insert(attr.Record{ID: int64(i), QI: []float64{float64(i), 0, 52000}}); err != nil {
			t.Fatal(err)
		}
	}
	bogus := []LeafView{{MBR: attr.NewBox(3), Records: []attr.Record{{ID: 999}}}}
	snap := tr.SnapshotLeaves(bogus)
	if err := sameLeafViews(snap, fullLeafCopy(tr)); err != nil {
		t.Fatalf("first snapshot trusted a foreign prev: %v", err)
	}
}
