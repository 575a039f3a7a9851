package tensor

import (
	"fmt"
	"math"
	"sort"

	"hypertensor/internal/par"
)

// COO is a sparse tensor of order N = len(Dims) in coordinate format.
// Indices are stored mode-major: Idx[m][t] is the mode-m index of
// nonzero t. This layout keeps the per-mode streams contiguous, which is
// what the symbolic and numeric TTMc kernels scan.
type COO struct {
	Dims []int
	Idx  [][]int32
	Val  []float64
}

// NewCOO returns an empty sparse tensor with the given mode sizes and
// capacity for nnz nonzeros.
func NewCOO(dims []int, nnz int) *COO {
	if len(dims) < 1 {
		panic("tensor: need at least one mode")
	}
	for _, d := range dims {
		if d <= 0 {
			panic("tensor: mode sizes must be positive")
		}
	}
	idx := make([][]int32, len(dims))
	for m := range idx {
		idx[m] = make([]int32, 0, nnz)
	}
	return &COO{
		Dims: append([]int(nil), dims...),
		Idx:  idx,
		Val:  make([]float64, 0, nnz),
	}
}

// Order returns the number of modes N.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored nonzeros.
func (t *COO) NNZ() int { return len(t.Val) }

// Append adds a nonzero with the given coordinates. It panics if the
// coordinate count or ranges are invalid; use AppendChecked for error
// returns when ingesting untrusted data.
func (t *COO) Append(coord []int, v float64) {
	if err := t.AppendChecked(coord, v); err != nil {
		panic(err)
	}
}

// AppendChecked adds a nonzero, validating the coordinates.
func (t *COO) AppendChecked(coord []int, v float64) error {
	if len(coord) != t.Order() {
		return fmt.Errorf("tensor: coordinate has %d modes, tensor has %d", len(coord), t.Order())
	}
	for m, c := range coord {
		if c < 0 || c >= t.Dims[m] {
			return fmt.Errorf("tensor: coordinate %d out of range [0,%d) in mode %d", c, t.Dims[m], m)
		}
	}
	for m, c := range coord {
		t.Idx[m] = append(t.Idx[m], int32(c))
	}
	t.Val = append(t.Val, v)
	return nil
}

// Coord writes the coordinates of nonzero i into dst (which must have
// length >= Order) and returns it.
func (t *COO) Coord(i int, dst []int) []int {
	for m := range t.Dims {
		dst[m] = int(t.Idx[m][i])
	}
	return dst
}

// Clone returns a deep copy.
func (t *COO) Clone() *COO {
	out := NewCOO(t.Dims, t.NNZ())
	for m := range t.Idx {
		out.Idx[m] = append(out.Idx[m], t.Idx[m]...)
	}
	out.Val = append(out.Val, t.Val...)
	return out
}

// Norm returns the Frobenius norm of the tensor, parallel over nonzeros
// with a fixed-block reduction (bitwise identical for any thread count).
func (t *COO) Norm(threads int) float64 {
	return math.Sqrt(par.SumBlocks(t.NNZ(), threads, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += t.Val[i] * t.Val[i]
		}
		return s
	}))
}

// key returns the lexicographic linearized coordinate of nonzero i. It
// is only valid when the product of dimensions fits in 64 bits, which
// SortDedup and the merge validation check.
func (t *COO) key(i int) uint64 {
	var k uint64
	for m, d := range t.Dims {
		k = k*uint64(d) + uint64(t.Idx[m][i])
	}
	return k
}

// IndexBytes reports the coordinate storage: N x nnz int32 entries.
func (t *COO) IndexBytes() int64 {
	return int64(t.Order()) * int64(t.NNZ()) * 4
}

// SortDedup sorts nonzeros lexicographically by coordinate and merges
// duplicates by summing their values, dropping exact zeros produced by
// cancellation. Real-world tensor ingestion (repeated (user,item,time)
// events) depends on this. It returns the receiver for chaining.
func (t *COO) SortDedup() *COO {
	n := t.NNZ()
	if n == 0 {
		return t
	}
	var prod float64 = 1
	for _, d := range t.Dims {
		prod *= float64(d)
	}
	if prod > math.MaxUint64/2 {
		panic("tensor: dimensions too large for linearized dedup")
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = t.key(i)
	}
	// Tie-break equal keys on the original position: duplicates are
	// summed in appearance order, so the dedup produces bitwise-
	// identical values for the same input on every run.
	sort.Slice(perm, func(a, b int) bool {
		if keys[perm[a]] != keys[perm[b]] {
			return keys[perm[a]] < keys[perm[b]]
		}
		return perm[a] < perm[b]
	})

	outIdx := make([][]int32, t.Order())
	for m := range outIdx {
		outIdx[m] = make([]int32, 0, n)
	}
	outVal := make([]float64, 0, n)
	i := 0
	for i < n {
		j := i
		var sum float64
		for j < n && keys[perm[j]] == keys[perm[i]] {
			sum += t.Val[perm[j]]
			j++
		}
		if sum != 0 {
			for m := range outIdx {
				outIdx[m] = append(outIdx[m], t.Idx[m][perm[i]])
			}
			outVal = append(outVal, sum)
		}
		i = j
	}
	t.Idx = outIdx
	t.Val = outVal
	return t
}

// ModeCounts returns, for the given mode, the number of nonzeros in each
// slice (a histogram of the mode's index stream). This is the slice-size
// statistic driving coarse-grain task weights.
func (t *COO) ModeCounts(mode int) []int32 {
	counts := make([]int32, t.Dims[mode])
	for _, ix := range t.Idx[mode] {
		counts[ix]++
	}
	return counts
}

// NonEmptySlices returns the number of distinct indices used in a mode.
func (t *COO) NonEmptySlices(mode int) int {
	n := 0
	for _, c := range t.ModeCounts(mode) {
		if c > 0 {
			n++
		}
	}
	return n
}

// Density returns nnz / prod(dims) as a float64 (may underflow to 0 for
// very large tensors; informational only).
func (t *COO) Density() float64 {
	d := float64(t.NNZ())
	for _, dim := range t.Dims {
		d /= float64(dim)
	}
	return d
}

// Subset returns a new tensor holding the nonzeros whose positions are
// listed in ids, in that order. Used to build per-rank local tensors.
func (t *COO) Subset(ids []int32) *COO {
	out := NewCOO(t.Dims, len(ids))
	for m := range t.Idx {
		col := t.Idx[m]
		dst := out.Idx[m][:0]
		for _, id := range ids {
			dst = append(dst, col[id])
		}
		out.Idx[m] = dst
	}
	for _, id := range ids {
		out.Val = append(out.Val, t.Val[id])
	}
	return out
}

// String summarizes the tensor.
func (t *COO) String() string {
	return fmt.Sprintf("COO(dims=%v, nnz=%d)", t.Dims, t.NNZ())
}
