package trsvd

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/tensor"
)

// RangeFinder computes S = X_(n)·Ω for a sparse tensor, with an
// implicit Gaussian sketch Ω of the huge ∏_{t≠n} I_t column space: the
// sketch entries are generated on the fly per (column, direction) with
// a hash, so the cost is O(nnz·k) and no matricization is ever
// materialized. Orthonormalizing the result gives the practical sparse
// stand-in for an HOSVD start (the exact HOSVD would need singular
// vectors of matrices with ∏_{t≠n} I_t columns, which §III.A.2 of the
// paper rules out). The result depends on the nonzero set and, up to
// floating-point rounding, not on the storage order.
//
// The nonzeros are grouped by mode-n coordinate with a stable counting
// sort, then rows are accumulated owner-computes over the par pool:
// each output row is summed by exactly one worker in storage order — a
// stronger determinism discipline than a fixed-block reduction, since
// there is no reduction at all — so the result is bitwise identical to
// the serial scan for every thread count. The grouping scratch and the
// returned matrix live in the workspace (nil allocates per call); the
// result is overwritten by the next RangeFinder call on that workspace.
func RangeFinder(x *tensor.COO, mode, k int, seed int64, threads int, ws *Workspace) *dense.Matrix {
	if ws == nil {
		ws = &Workspace{}
	}
	dims := x.Dims
	nr := dims[mode]
	s := dense.ReuseMatrix(ws.rfOut, nr, k)
	ws.rfOut = s
	order := x.Order()
	streams := x.Idx
	vals := x.Val
	nnz := x.NNZ()

	// Stable counting sort of nonzero ids by mode coordinate: after the
	// scatter, off[r] is the end of row r's group (its start is
	// off[r-1]), and within a group ids keep storage order.
	ms := streams[mode]
	off := reuseInt32(ws.rfOff, nr+1)
	ws.rfOff = off
	for i := range off {
		off[i] = 0
	}
	for t := 0; t < nnz; t++ {
		off[ms[t]+1]++
	}
	for r := 0; r < nr; r++ {
		off[r+1] += off[r]
	}
	perm := reuseInt32(ws.rfPerm, nnz)
	ws.rfPerm = perm
	for t := 0; t < nnz; t++ {
		r := ms[t]
		perm[off[r]] = int32(t)
		off[r]++
	}

	par.ForDynamicWorker(nr, threads, 64, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			start := 0
			if r > 0 {
				start = int(off[r-1])
			}
			row := s.Row(r)
			for _, t32 := range perm[start:int(off[r])] {
				t := int(t32)
				// Linearize the non-mode coordinates into the sketch
				// column id.
				var col int64
				for m := 0; m < order; m++ {
					if m == mode {
						continue
					}
					col = col*int64(dims[m]) + int64(streams[m][t])
				}
				v := vals[t]
				for j := 0; j < k; j++ {
					row[j] += v * GaussHash(seed, col, int64(j))
				}
			}
		}
	})
	return s
}

// reuseInt32 returns a length-n int32 slice reusing v's backing array
// when it is large enough (contents unspecified).
func reuseInt32(v []int32, n int) []int32 {
	if cap(v) < n {
		grown := n
		if 2*cap(v) > grown {
			grown = 2 * cap(v)
		}
		return make([]int32, grown)[:n]
	}
	return v[:n]
}

// GaussHash returns a deterministic pseudo-Gaussian sample for the
// sketch entry Ω[col, j]: the sum of four independent uniform(-1,1)
// hashes (variance-normalized), light-tailed enough for a range finder.
func GaussHash(seed, col, j int64) float64 {
	var sum float64
	base := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(col)*0xC2B2AE3D27D4EB4F ^ uint64(j)*0x165667B19E3779F9
	for i := uint64(1); i <= 4; i++ {
		z := base + i*0x9E3779B97F4A7C15
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		sum += 2*float64(z>>11)/float64(1<<53) - 1
	}
	// Var(uniform(-1,1)) = 1/3; sum of 4 has variance 4/3.
	return sum * 0.8660254037844386 // * sqrt(3)/2
}
