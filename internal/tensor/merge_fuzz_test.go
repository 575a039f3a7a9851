package tensor

import (
	"slices"
	"testing"
)

// FuzzMergeDelta drives COO.MergeIndexed with arbitrary (possibly
// malformed) deltas: the fuzz bytes decode into two successive deltas
// merged through one retained MergeIndex, the path a resident
// Engine.Update runs. A rejected delta must leave the receiver
// untouched (and the index usable for the next delta); an accepted one
// must match a one-shot Merge with a fresh index bit for bit, and the
// receiver must hold the same canonical nonzero multiset as
// concatenating every accepted delta and running SortDedup.
func FuzzMergeDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 250}, int16(3))
	f.Add([]byte{0, 0, 0, 255, 255, 255, 7, 7}, int16(1))
	f.Add([]byte{}, int16(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, int16(-4))
	// The second delta updates the coordinate the first one appended.
	f.Add([]byte{3, 3, 3, 3, 3, 3}, int16(2))

	dims := []int{7, 9, 11}
	base := NewCOO(dims, 0)
	for i := 0; i < 50; i++ {
		base.Append([]int{(i * 3) % 7, (i * 5) % 9, (i * 7) % 11}, float64(i%11)-5)
	}
	base.SortDedup()

	f.Fuzz(func(t *testing.T, raw []byte, vseed int16) {
		// Decode the byte stream into triples of coordinate bytes
		// (intentionally unclamped, so out-of-range and negative
		// coordinates appear) with values derived from vseed; the first
		// half of the triples forms the first delta, the rest the second.
		triples := min(len(raw)/3, 64)
		deltas := []*COO{
			{Dims: dims, Idx: make([][]int32, 3)},
			{Dims: dims, Idx: make([][]int32, 3)},
		}
		for k := 0; k < triples; k++ {
			d := deltas[0]
			if 2*k >= triples {
				d = deltas[1]
			}
			for m := 0; m < 3; m++ {
				d.Idx[m] = append(d.Idx[m], int32(raw[3*k+m])-2)
			}
			d.Val = append(d.Val, float64(vseed)+float64(3*k))
		}

		x := base.Clone()
		ix := x.NewMergeIndex()
		ref := base.Clone()
		for step, d := range deltas {
			before := x.Clone()
			info, err := x.MergeIndexed(d, ix)
			if err != nil {
				if !sameStorage(x, before) {
					t.Fatalf("delta %d: failed merge mutated the receiver", step)
				}
				continue
			}
			if info.OldNNZ != before.NNZ() || x.NNZ() != before.NNZ()+info.Appended {
				t.Fatalf("delta %d: merge accounting inconsistent: %+v nnz=%d", step, info, x.NNZ())
			}
			oneShot := before.Clone()
			oinfo, err := oneShot.Merge(d)
			if err != nil {
				t.Fatalf("delta %d: one-shot merge rejected a delta the indexed merge accepted: %v", step, err)
			}
			if !sameStorage(x, oneShot) || oinfo.Appended != info.Appended || !slices.Equal(oinfo.Updated, info.Updated) {
				t.Fatalf("delta %d: retained-index merge diverged from a one-shot merge", step)
			}

			for i := 0; i < d.NNZ(); i++ {
				for m := range dims {
					ref.Idx[m] = append(ref.Idx[m], d.Idx[m][i])
				}
				ref.Val = append(ref.Val, d.Val[i])
			}
			// Merge keeps exact-zero cancellations; sameCanonical
			// treats them as absent.
			if !sameCanonical(x.Clone().SortDedup(), ref.Clone().SortDedup()) {
				t.Fatalf("delta %d: merge diverged from concatenate+SortDedup", step)
			}
		}
	})
}

// sameStorage reports whether two tensors hold the same nonzeros at the
// same storage positions, bit for bit.
func sameStorage(a, b *COO) bool {
	if !slices.Equal(a.Val, b.Val) {
		return false
	}
	for m := range a.Idx {
		if !slices.Equal(a.Idx[m], b.Idx[m]) {
			return false
		}
	}
	return true
}

// sameCanonical compares two canonicalized tensors treating explicit
// zeros (which Merge retains for position stability, SortDedup drops)
// as absent.
func sameCanonical(a, b *COO) bool {
	ai, bi := 0, 0
	next := func(t *COO, i int) int {
		for i < t.NNZ() && t.Val[i] == 0 {
			i++
		}
		return i
	}
	for {
		ai, bi = next(a, ai), next(b, bi)
		if ai >= a.NNZ() || bi >= b.NNZ() {
			return ai >= a.NNZ() && bi >= b.NNZ()
		}
		for m := range a.Dims {
			if a.Idx[m][ai] != b.Idx[m][bi] {
				return false
			}
		}
		if a.Val[ai] != b.Val[bi] {
			return false
		}
		ai++
		bi++
	}
}
