package trsvd

import (
	"hypertensor/internal/dense"
)

// Operator is a matrix-free view of a rows x cols matrix whose row space
// may be distributed across SPMD ranks (each rank sees LocalRows rows).
// Column-space vectors (length Cols) are replicated: every rank passes
// identical x to MatVec and receives identical x from MatTVec.
type Operator interface {
	// LocalRows is the number of rows stored by this rank (all rows in
	// the shared-memory case).
	LocalRows() int
	// Cols is the (global, replicated) column count.
	Cols() int
	// MatVec computes y = A x with len(x) = Cols, len(y) = LocalRows.
	MatVec(x, y []float64)
	// MatTVec computes x = Aᵀ y with len(y) = LocalRows, len(x) = Cols.
	// In distributed implementations the result is reduced across ranks
	// so every rank receives the identical global x.
	MatTVec(y, x []float64)
	// RowDot returns the global inner product of two row-space vectors
	// (length LocalRows on this rank). Distributed implementations
	// AllReduce the local partial dot.
	RowDot(a, b []float64) float64
}

// GlobalRowIDer is an optional extension giving a stable global id for
// each local row. The solvers use it to generate deterministic
// pseudo-random row-space vectors that agree across ranks when an
// orthonormal basis must be completed after rank-deficiency.
type GlobalRowIDer interface {
	GlobalRow(local int) int64
}

// DenseOperator adapts an in-memory dense matrix (the compacted TTMc
// result) to the Operator interface, using the threaded GEMV kernels —
// the shared-memory TRSVD path of §III.A.2.
type DenseOperator struct {
	A       *dense.Matrix
	Threads int
}

// LocalRows returns the row count of the wrapped matrix.
func (o *DenseOperator) LocalRows() int { return o.A.Rows }

// Cols returns the column count of the wrapped matrix.
func (o *DenseOperator) Cols() int { return o.A.Cols }

// MatVec computes y = A x with the threaded GEMV kernel.
func (o *DenseOperator) MatVec(x, y []float64) { dense.Gemv(o.A, x, y, o.Threads) }

// MatTVec computes x = Aᵀ y with the threaded transposed GEMV kernel.
func (o *DenseOperator) MatTVec(y, x []float64) { dense.GemvT(o.A, y, x, o.Threads) }

// RowDot is a plain local dot product over this rank's rows — long
// vectors, so the 4-way unrolled kernel pays. Every row-space inner
// product in the solvers goes through RowDot, keeping one association
// per solver run.
func (o *DenseOperator) RowDot(a, b []float64) float64 { return dense.DotUnrolled(a, b) }

// GlobalRow is the identity in the shared-memory case.
func (o *DenseOperator) GlobalRow(local int) int64 { return int64(local) }

// MatMat computes Y = A·W in one BLAS3 pass (register-tiled GEMM)
// instead of W.Cols separate GEMVs — the Randomized solver's panel
// product.
func (o *DenseOperator) MatMat(w, y *dense.Matrix) { dense.MatMulInto(y, o.A, w, o.Threads) }

// MatTMat computes Z = Aᵀ·Y in one BLAS3 pass with the fixed-block
// deterministic reduction.
func (o *DenseOperator) MatTMat(y, z *dense.Matrix) { dense.MatMulTAInto(z, o.A, y, o.Threads) }

var _ Operator = (*DenseOperator)(nil)
var _ GlobalRowIDer = (*DenseOperator)(nil)

// opThreads returns the operator's shared-memory thread budget for the
// solver's own dense work (reorthogonalization sweeps): DenseOperator
// carries one explicitly; any other operator (the distributed ones,
// whose rank goroutines each run a solver concurrently) gets 1 so SPMD
// ranks never oversubscribe the machine through the fallback spawner.
func opThreads(op Operator) int {
	if d, ok := op.(*DenseOperator); ok {
		return d.Threads
	}
	return 1
}

// hashUnit fills v with deterministic pseudo-random values derived from
// (seed, id(i)) and is used to (re)start Krylov spaces and complete
// bases consistently across ranks. The generator is SplitMix64.
func hashUnit(v []float64, seed int64, id func(int) int64) {
	for i := range v {
		z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id(i))*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		// Map to (-1, 1).
		v[i] = 2*float64(z>>11)/float64(1<<53) - 1
	}
}
