package tensor

import (
	"fmt"
	"math"
	"slices"
)

// MergeInfo reports what a COO delta merge did, in terms the incremental
// layers above the storage need: which existing storage positions had
// their value changed (positions are stable — Merge never moves an
// existing nonzero), and how many brand-new nonzeros were appended at
// the tail (their ids are OldNNZ..OldNNZ+Appended-1).
type MergeInfo struct {
	// Updated lists the storage positions of existing nonzeros whose
	// value changed, ascending.
	Updated []int32
	// Appended is the number of new coordinates appended at the tail.
	Appended int
	// OldNNZ is the receiver's nonzero count before the merge.
	OldNNZ int
}

// validateDelta runs the pre-mutation checks of MergeIndexed: order
// and mode sizes must match, every coordinate must be in range, the
// index streams must be consistent, and the lexicographic linearized
// key space must fit 64 bits. Nothing may be mutated before this
// passes.
func validateDelta(dims []int, delta *COO) error {
	if delta == nil {
		return fmt.Errorf("tensor: nil delta")
	}
	if delta.Order() != len(dims) {
		return fmt.Errorf("tensor: delta has order %d, tensor has %d", delta.Order(), len(dims))
	}
	for m, d := range dims {
		if delta.Dims[m] != d {
			return fmt.Errorf("tensor: delta mode-%d size %d does not match tensor size %d", m, delta.Dims[m], d)
		}
	}
	for m := range delta.Idx {
		if len(delta.Idx[m]) != delta.NNZ() {
			return fmt.Errorf("tensor: delta index stream %d has %d entries for %d nonzeros", m, len(delta.Idx[m]), delta.NNZ())
		}
		for i, c := range delta.Idx[m] {
			if c < 0 || int(c) >= dims[m] {
				return fmt.Errorf("tensor: delta nonzero %d coordinate %d out of range [0,%d) in mode %d", i, c, dims[m], m)
			}
		}
	}
	var prod float64 = 1
	for _, d := range dims {
		prod *= float64(d)
	}
	if prod > math.MaxUint64/2 {
		return fmt.Errorf("tensor: dimensions too large for linearized merge")
	}
	return nil
}

// MergeIndex is a reusable coordinate-lookup index for repeated Merge
// calls on one evolving tensor. A one-shot Merge hashes every existing
// nonzero to find duplicates — O(nnz) per call, which would dominate a
// resident engine ingesting small deltas. An index built once via
// NewMergeIndex amortizes that: MergeIndexed extends it with the
// appended tail after each merge, so successive ingests cost only the
// delta. The index is only valid while the tensor mutates through
// MergeIndexed (stable ids); it must not be shared between tensors.
type MergeIndex struct {
	owner *COO
	pos   map[uint64]int32
	n     int // nonzeros indexed so far
}

// NewMergeIndex returns an empty index bound to t; the first
// MergeIndexed call populates it.
func (t *COO) NewMergeIndex() *MergeIndex {
	return &MergeIndex{owner: t, pos: make(map[uint64]int32, t.NNZ())}
}

// sync indexes the nonzeros appended since the last call.
func (ix *MergeIndex) sync() {
	t := ix.owner
	for ; ix.n < t.NNZ(); ix.n++ {
		ix.pos[t.key(ix.n)] = int32(ix.n)
	}
}

// Merge ingests a delta tensor: for every delta nonzero whose
// coordinates already exist in the receiver the values are summed in
// place, and genuinely new coordinates are appended at the tail in the
// delta's canonical (sorted) order. Existing storage positions never
// move and entries are never dropped — a sum that cancels to exactly
// zero keeps its (zero-valued) entry — so nonzero ids stay stable,
// which is what the incremental symbolic and dimension-tree update
// paths key on. The receiver therefore need not stay globally sorted;
// callers that want the canonical layout can SortDedup afterwards.
//
// The delta is canonicalized first with the standard sort-dedup pass
// (duplicate coordinates within the delta are summed; exact-zero sums
// are dropped), without mutating the caller's delta. The whole delta is
// validated before the first mutation: a shape mismatch or an
// out-of-range coordinate returns an error and leaves the receiver
// untouched.
//
// Merge builds a fresh coordinate index per call; streaming callers
// should hold a MergeIndex and use MergeIndexed.
func (t *COO) Merge(delta *COO) (*MergeInfo, error) {
	return t.MergeIndexed(delta, nil)
}

// MergeIndexed is Merge with a caller-retained MergeIndex (see
// NewMergeIndex); nil behaves like Merge. The index is kept in sync
// with the appended nonzeros, so a resident engine's ingest cost is
// proportional to the delta, not the tensor.
func (t *COO) MergeIndexed(delta *COO, ix *MergeIndex) (*MergeInfo, error) {
	if err := validateDelta(t.Dims, delta); err != nil {
		return nil, err
	}
	if ix != nil && ix.owner != t {
		return nil, fmt.Errorf("tensor: merge index belongs to a different tensor")
	}
	info := &MergeInfo{OldNNZ: t.NNZ()}
	if delta.NNZ() == 0 {
		return info, nil
	}
	d := delta.Clone().SortDedup()

	if ix == nil {
		ix = t.NewMergeIndex()
	}
	ix.sync()
	for i := 0; i < d.NNZ(); i++ {
		k := d.key(i)
		if p, ok := ix.pos[k]; ok {
			t.Val[p] += d.Val[i]
			info.Updated = append(info.Updated, p)
		} else {
			for m := range t.Idx {
				t.Idx[m] = append(t.Idx[m], d.Idx[m][i])
			}
			t.Val = append(t.Val, d.Val[i])
			info.Appended++
		}
	}
	ix.sync()
	// Delta entries were visited in sorted-key order, but the positions
	// they update are in the receiver's (arbitrary) storage order.
	slices.Sort(info.Updated)
	return info, nil
}
