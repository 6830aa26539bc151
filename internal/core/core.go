// Package core is the paper's primary contribution assembled as a
// library: k-anonymization performed by building a spatial index.
//
// It exposes:
//
//   - RTreeAnonymizer — the index-based anonymizer. Bulk loads through
//     the buffer tree (Section 2.1), accepts incremental inserts,
//     deletes and updates (Section 2.2), publishes compacted partitions
//     straight from leaf MBRs, and derives any granularity k₁ ≥ k via
//     the leaf-scan algorithm (Section 3.2) or tree levels via the
//     hierarchical algorithm (Section 3.1).
//   - MondrianAnonymizer, SFCAnonymizer, GridAnonymizer — the baselines,
//     behind the same Anonymizer interface, so the experiment harness
//     and the CLI treat every algorithm uniformly.
//   - LeafScan — the Figure 5 algorithm as a standalone function.
//   - Render / WriteCSV — materialization of an anonymized table, with
//     hierarchy-aware categorical generalization ("*" at the root).
package core

import (
	"fmt"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/bptree"
	"spatialanon/internal/compact"
	"spatialanon/internal/gridfile"
	"spatialanon/internal/mondrian"
	"spatialanon/internal/par"
	"spatialanon/internal/quadtree"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/sfc"
)

// Anonymizer is the uniform face of every algorithm in the repository:
// one-shot anonymization of a record set under the algorithm's
// configured constraint.
type Anonymizer interface {
	// Anonymize partitions recs. Implementations may reorder the input
	// slice.
	Anonymize(recs []attr.Record) ([]anonmodel.Partition, error)
	// Name identifies the algorithm in reports.
	Name() string
}

// LeafScan is the multi-granular leaf-scan algorithm of Figure 5: scan
// base partitions in index order, accumulating whole partitions until
// the constraint is satisfied, then recompute the group's generalized
// box as the union of its members' boxes. A final group that cannot
// satisfy the constraint is absorbed into its predecessor (step LS4).
//
// Because output groups are unions of whole base partitions, every
// record stays bound (Definition 2) to the ≥k records of its base
// partition, which is what makes releases at several granularities
// jointly safe (Lemma 1).
func LeafScan(base []anonmodel.Partition, constraint anonmodel.Constraint) ([]anonmodel.Partition, error) {
	return LeafScanP(base, constraint, 1)
}

// LeafScanP is LeafScan with a parallelism knob (0 = all cores, 1 =
// serial). The scan itself is a sequential dependence chain — each
// group boundary depends on the previous one — but for constraints
// that are functions of group size alone (k-anonymity, conjunctions of
// k-anonymities) the boundaries can be planned from partition sizes in
// one cheap serial pass, after which the groups' record slices and
// boxes are materialized concurrently. Output is identical to the
// serial scan for every worker count; constraints that inspect record
// contents (l-diversity, (α,k)) fall back to the serial scan.
func LeafScanP(base []anonmodel.Partition, constraint anonmodel.Constraint, workers int) ([]anonmodel.Partition, error) {
	if constraint == nil {
		return nil, fmt.Errorf("core: nil constraint")
	}
	if len(base) == 0 {
		return nil, nil
	}
	w := par.Workers(workers)
	min, sizeOnly := sizeOnlyMin(constraint)
	if w <= 1 || !sizeOnly {
		return leafScanSerial(base, constraint)
	}
	// Plan the group boundaries from sizes alone: group g is
	// base[bounds[g]:bounds[g+1]). run mirrors len(cur.Records) of the
	// serial scan, so "run >= min" is exactly its Satisfied check.
	bounds := []int{0}
	run := 0
	for i, p := range base {
		run += len(p.Records)
		if run >= min {
			bounds = append(bounds, i+1)
			run = 0
		}
	}
	if run > 0 {
		if len(bounds) == 1 {
			return nil, fmt.Errorf("core: %d records cannot satisfy %v", run, constraint)
		}
		// Step LS4: absorb the unsatisfiable tail into the last group.
		bounds[len(bounds)-1] = len(base)
	}
	// A tail of empty partitions with no records is dropped, as the
	// serial scan drops an empty trailing accumulator.
	dims := len(base[0].Box)
	out := make([]anonmodel.Partition, len(bounds)-1)
	par.Do(w, len(out), func(g int) {
		group := base[bounds[g]:bounds[g+1]]
		n := 0
		for _, p := range group {
			n += len(p.Records)
		}
		box := attr.NewBox(dims)
		recs := make([]attr.Record, 0, n)
		for _, p := range group {
			recs = append(recs, p.Records...)
			box.IncludeBox(p.Box)
		}
		out[g] = anonmodel.Partition{Box: box, Records: recs}
	})
	return out, nil
}

// sizeOnlyMin reports whether constraint is a pure function of group
// size and, if so, the smallest satisfying size: Satisfied(recs) ⇔
// len(recs) >= min. True for KAnonymity and for All built solely from
// size-only constraints.
func sizeOnlyMin(c anonmodel.Constraint) (min int, ok bool) {
	switch v := c.(type) {
	case anonmodel.KAnonymity:
		return v.K, true
	case anonmodel.All:
		for _, sub := range v {
			m, subOK := sizeOnlyMin(sub)
			if !subOK {
				return 0, false
			}
			if m > min {
				min = m
			}
		}
		return min, true
	}
	return 0, false
}

// leafScanSerial is the reference Figure 5 scan: one pass, one
// accumulator. LeafScanP must match it exactly.
func leafScanSerial(base []anonmodel.Partition, constraint anonmodel.Constraint) ([]anonmodel.Partition, error) {
	dims := len(base[0].Box)
	var out []anonmodel.Partition
	cur := anonmodel.Partition{Box: attr.NewBox(dims)}
	for _, p := range base {
		cur.Records = append(cur.Records, p.Records...)
		cur.Box.IncludeBox(p.Box)
		if constraint.Satisfied(cur.Records) {
			out = append(out, cur)
			cur = anonmodel.Partition{Box: attr.NewBox(dims)}
		}
	}
	if len(cur.Records) > 0 {
		if len(out) == 0 {
			if !constraint.Satisfied(cur.Records) {
				return nil, fmt.Errorf("core: %d records cannot satisfy %v", len(cur.Records), constraint)
			}
			out = append(out, cur)
		} else {
			last := &out[len(out)-1]
			last.Records = append(last.Records, cur.Records...)
			last.Box.IncludeBox(cur.Box)
		}
	}
	return out, nil
}

// Release is one anonymized table of a multi-granular set.
type Release struct {
	// Granularity is the anonymity parameter this release was derived
	// at (the leaf-scan k₁, or the effective minimum occupancy of a
	// hierarchical level).
	Granularity int
	Partitions  []anonmodel.Partition
}

// MondrianAnonymizer adapts the top-down baseline to the Anonymizer
// interface, optionally compacting its output (Section 4 retrofit).
type MondrianAnonymizer struct {
	Schema     *attr.Schema
	Constraint anonmodel.Constraint
	Relaxed    bool
	Compact    bool
	// Parallelism bounds worker goroutines for the recursion and the
	// compaction pass (0 = all cores, 1 = serial; output identical
	// either way).
	Parallelism int
}

// Anonymize implements Anonymizer.
func (m *MondrianAnonymizer) Anonymize(recs []attr.Record) ([]anonmodel.Partition, error) {
	ps, err := mondrian.Anonymize(m.Schema, recs, mondrian.Options{
		Constraint:  m.Constraint,
		Relaxed:     m.Relaxed,
		Parallelism: m.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if m.Compact {
		ps = compact.PartitionsP(ps, m.Parallelism)
	}
	return ps, nil
}

// Name implements Anonymizer.
func (m *MondrianAnonymizer) Name() string {
	name := "mondrian"
	if m.Relaxed {
		name += "-relaxed"
	}
	if m.Compact {
		name += "+compact"
	}
	return name
}

// SFCAnonymizer adapts sort-based space-filling-curve anonymization to
// the Anonymizer interface.
type SFCAnonymizer struct {
	Curve      sfc.Curve
	Constraint anonmodel.Constraint
}

// Anonymize implements Anonymizer.
func (a *SFCAnonymizer) Anonymize(recs []attr.Record) ([]anonmodel.Partition, error) {
	return sfc.Anonymize(recs, a.Curve, a.Constraint)
}

// Name implements Anonymizer.
func (a *SFCAnonymizer) Name() string { return "sfc-" + a.Curve.String() }

// GridAnonymizer adapts the grid-file baseline to the Anonymizer
// interface, optionally compacting (the Section 4 retrofit that package
// gridfile exists to demonstrate).
type GridAnonymizer struct {
	Schema      *attr.Schema
	Constraint  anonmodel.Constraint
	CellsPerDim int
	Compact     bool
	// Parallelism bounds worker goroutines for the compaction pass.
	Parallelism int
}

// Anonymize implements Anonymizer.
func (g *GridAnonymizer) Anonymize(recs []attr.Record) ([]anonmodel.Partition, error) {
	ps, err := gridfile.Anonymize(g.Schema, recs, gridfile.Options{
		Constraint:  g.Constraint,
		CellsPerDim: g.CellsPerDim,
	})
	if err != nil {
		return nil, err
	}
	if g.Compact {
		ps = compact.PartitionsP(ps, g.Parallelism)
	}
	return ps, nil
}

// Name implements Anonymizer.
func (g *GridAnonymizer) Name() string {
	if g.Compact {
		return "gridfile+compact"
	}
	return "gridfile"
}

// BPTreeAnonymizer anonymizes with a one-dimensional B⁺-tree — the
// paper's introductory observation (Section 1, Figure 1(c)) made
// executable. The index clusters records on a single key attribute;
// leaves become groups; each group publishes its MBR over all
// attributes (the implicit compaction of Section 4). It is the extreme
// point of the workload-bias spectrum: ideal when every query ranges
// over the key, poor for everything else, and the ablation benchmarks
// quantify both sides.
type BPTreeAnonymizer struct {
	Schema     *attr.Schema
	Constraint anonmodel.Constraint
	// Key is the attribute to index on.
	Key int

	tree *bptree.Tree
}

// Anonymize implements Anonymizer.
func (b *BPTreeAnonymizer) Anonymize(recs []attr.Record) ([]anonmodel.Partition, error) {
	if b.Constraint == nil {
		return nil, fmt.Errorf("core: nil constraint")
	}
	if len(recs) == 0 {
		return nil, nil
	}
	tr, err := bptree.New(bptree.Config{
		Schema: b.Schema,
		Key:    b.Key,
		BaseK:  b.Constraint.MinSize(),
	})
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := tr.Insert(r); err != nil {
			return nil, err
		}
	}
	b.tree = tr
	dims := b.Schema.Dims()
	leaves := tr.Leaves()
	base := make([]anonmodel.Partition, len(leaves))
	for i, group := range leaves {
		box := attr.NewBox(dims)
		for _, r := range group {
			box.Include(r.QI)
		}
		base[i] = anonmodel.Partition{Box: box, Records: group}
	}
	return LeafScan(base, b.Constraint)
}

// Name implements Anonymizer.
func (b *BPTreeAnonymizer) Name() string { return fmt.Sprintf("bptree[%d]", b.Key) }

// Tree exposes the index built by the last Anonymize call.
func (b *BPTreeAnonymizer) Tree() *bptree.Tree { return b.tree }

// QuadAnonymizer anonymizes with a PR-quadtree index (Section 6's
// alternative index family, after [16]): the tree subdivides at cell
// midpoints, leaves publish tight MBRs, and constraint satisfaction
// comes from leaf-scanning the quadrant-ordered leaves.
type QuadAnonymizer struct {
	Schema     *attr.Schema
	Constraint anonmodel.Constraint
	// SplitAxes optionally pins the subdividing attributes (max 4);
	// empty picks the widest domain axes.
	SplitAxes []int

	tree *quadtree.Tree
}

// Anonymize implements Anonymizer.
func (q *QuadAnonymizer) Anonymize(recs []attr.Record) ([]anonmodel.Partition, error) {
	if q.Constraint == nil {
		return nil, fmt.Errorf("core: nil constraint")
	}
	if len(recs) == 0 {
		return nil, nil
	}
	qt, err := quadtree.New(quadtree.Config{
		Schema:    q.Schema,
		BaseK:     q.Constraint.MinSize(),
		SplitAxes: q.SplitAxes,
	}, recs)
	if err != nil {
		return nil, err
	}
	q.tree = qt
	leaves := qt.Leaves()
	base := make([]anonmodel.Partition, len(leaves))
	for i, l := range leaves {
		base[i] = anonmodel.Partition{Box: l.MBR.Clone(), Records: l.Records}
	}
	return LeafScan(base, q.Constraint)
}

// Name implements Anonymizer.
func (q *QuadAnonymizer) Name() string { return "quadtree" }

// Tree exposes the underlying index from the last Anonymize call (nil
// before the first).
func (q *QuadAnonymizer) Tree() *quadtree.Tree { return q.tree }

// partitionsFromLeaves converts index leaves into base partitions. Leaf
// MBRs are tight, so these partitions are born compacted — the index
// "maintains MBRs" (Section 2.3) and never needs the explicit
// compaction pass.
func partitionsFromLeaves(leaves []rplustree.LeafView) []anonmodel.Partition {
	out := make([]anonmodel.Partition, len(leaves))
	for i, l := range leaves {
		out[i] = anonmodel.Partition{Box: l.MBR.Clone(), Records: l.Records}
	}
	return out
}
