package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// TTMc computes the mode-n matricized tensor-times-matrix-chain product
//
//	Y_(n)(i, :) = sum_{x_{i_1..i_N} in X, i_n = i} x * ⊗_{t≠n} U_t(i_t, :)
//
// (eq. 4 of the paper) for every nonempty slice i in sm.Rows, writing
// row r of y for slice sm.Rows[r]. y must be pre-shaped
// sm.NumRows() x RowSize(u, sm.N); it is overwritten. U[sm.N] is not
// referenced and may be nil.
//
// Rows are computed independently (Algorithm 3 lines 5-8) on chains of
// near-equal nonzero weight, one per worker, with work-stealing for
// irregular tails (see runRows): each row is owned by exactly one
// worker so no locks are needed, and the accumulation order within a
// row is fixed by the symbolic structure, making the result bitwise
// deterministic for any thread count.
func TTMc(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int) {
	if y.Rows != sm.NumRows() || y.Cols != RowSize(u, sm.N) {
		panic("ttm: TTMc output shape mismatch")
	}
	flatRows(y, x, sm, nil, u, threads)
}

// TTMcSched is TTMc; the trailing argument is ignored. It is kept only
// for the frozen per-layer benchmark (perfbench/layers.go).
func TTMcSched(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads, _ int) {
	TTMc(y, x, sm, u, threads)
}

// runRows executes an owner-computes row loop over [0, n) on
// per-worker chains of near-equal weight, with workers that drain
// their chain early stealing chunks from the heaviest remaining one —
// the load-balance discipline the paper's scaling results rest on,
// where uniform chunking leaves the worker that owns the heaviest
// slices running long after the rest are idle. chains() is consulted
// only when more than one worker runs, so callers can defer the
// partition. Every row has exactly one owner, so results are bitwise
// identical for every thread count.
func runRows(n, threads int, chains func() []int32, body func(worker, lo, hi int)) {
	if threads <= 1 || n <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	par.RunChains(chains(), threads, body)
}

// TTMcRows computes the TTMc result only for the symbolic row positions
// listed in rows (ascending positions into sm.Rows): y.Row(j) receives
// the row for slice sm.Rows[rows[j]]. The coarse-grain distributed
// algorithm uses this to evaluate exactly its owned set K_n = I_n^k
// (Algorithm 4 lines 3-4, 9-12) from a local tensor that also stores
// nonzeros owned through other modes.
func TTMcRows(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, rows []int32, u []*dense.Matrix, threads int) {
	if y.Rows != len(rows) || y.Cols != RowSize(u, sm.N) {
		panic("ttm: TTMcRows output shape mismatch")
	}
	flatRows(y, x, sm, rows, u, threads)
}

// flatRows is the owner-computes row loop behind every flat TTMc entry
// point: output row j is zeroed and then accumulates, in update-list
// order, every nonzero of symbolic row rows[j] (of row j itself when
// rows is nil). The chains weigh rows by their nonzero counts: the
// symbolic mode's partition for the full row set, one computed per call
// for a subset (subsets vary, so there is nothing to cache).
func flatRows(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, rows []int32, u []*dense.Matrix, threads int) {
	threads = par.DefaultThreads(threads)
	kr := newKron(x, u, sm.N, sm.N+1)
	chains := func() []int32 {
		if rows == nil {
			return sm.Chains(threads)
		}
		w := make([]int64, len(rows))
		for j, r := range rows {
			w[j] = int64(sm.Ptr[r+1] - sm.Ptr[r])
		}
		return par.PartitionChains(w, threads)
	}
	scs := make([]kronScratch, threads)
	runRows(y.Rows, threads, chains, func(w, lo, hi int) {
		sc := kr.scratch(scs, w)
		for j := lo; j < hi; j++ {
			r := j
			if rows != nil {
				r = int(rows[j])
			}
			row := y.Row(j)
			clear(row)
			for _, id := range sm.RowNZ(r) {
				kr.add(row, int(id), sc)
			}
		}
	})
}

// TTMcNaive is the un-fused variant used as an ablation baseline: for
// every nonzero it materializes the full Kronecker product in a
// temporary of length RowSize and then adds it to the row. Numerically
// it matches TTMc to rounding; the benchmark quantifies the cost of the
// extra temporary traffic.
func TTMcNaive(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int) {
	k := RowSize(u, sm.N)
	if y.Rows != sm.NumRows() || y.Cols != k {
		panic("ttm: TTMcNaive output shape mismatch")
	}
	order := x.Order()
	threads = par.DefaultThreads(threads)
	type scratch struct {
		rows [][]float64
		kron []float64
	}
	scratches := make([]*scratch, threads)
	chains := func() []int32 { return sm.Chains(threads) }
	runRows(sm.NumRows(), threads, chains, func(w, lo, hi int) {
		sc := scratches[w]
		if sc == nil {
			sc = &scratch{rows: make([][]float64, order-1), kron: make([]float64, k)}
			scratches[w] = sc
		}
		for r := lo; r < hi; r++ {
			row := y.Row(r)
			for i := range row {
				row[i] = 0
			}
			for _, id := range sm.RowNZ(r) {
				j := 0
				for t := 0; t < order; t++ {
					if t == sm.N {
						continue
					}
					sc.rows[j] = u[t].Row(int(x.Idx[t][id]))
					j++
				}
				KronRows(sc.rows, sc.kron)
				dense.Axpy(x.Val[id], sc.kron, row)
			}
		}
	})
}

// Flops returns the multiply-add count of one TTMc call for the given
// mode: nnz * RowSize (the final AXPY dominates; prefix terms are a
// geometric series below it). It is the W_TTMc statistic of Table III.
func Flops(nnz, rowSize int) int64 { return int64(nnz) * int64(rowSize) }
