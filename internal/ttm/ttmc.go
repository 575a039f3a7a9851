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
// Rows are computed independently with dynamic scheduling (Algorithm 3
// lines 5-8): each row is owned by exactly one worker so no locks are
// needed, and the accumulation order within a row is fixed by the
// symbolic structure, making the result bitwise deterministic for any
// thread count. TTMcSched selects other schedules.
func TTMc(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int) {
	TTMcSched(y, x, sm, u, threads, par.ScheduleDynamic)
}

// runRows executes an owner-computes row loop over [0, n) under the
// given schedule: uniform static blocks, chunked dynamic
// self-scheduling, or balanced chains with work-stealing (chains() is
// only consulted for the balanced schedule, so callers can defer the
// partition computation). All schedules give every row exactly one
// owner, so the results are bitwise identical.
func runRows(sched par.Schedule, n, threads int, chains func() []int32, body func(worker, lo, hi int)) {
	if threads <= 1 || n <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	switch sched {
	case par.ScheduleStatic:
		par.ForWorker(n, threads, body)
	case par.ScheduleDynamic:
		par.ForDynamicWorker(n, threads, 0, body)
	default:
		par.RunChains(chains(), threads, body)
	}
}

// TTMcSched is TTMc under an explicit schedule. The balanced schedule
// partitions the rows into per-worker chains of near-equal nonzero
// weight (cached on the symbolic mode) and steals chunks for irregular
// tails — the load-balance discipline the paper's scaling results rest
// on, where uniform chunking leaves the worker that owns the heaviest
// slices running long after the rest are idle.
func TTMcSched(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int, sched par.Schedule) {
	if y.Rows != sm.NumRows() || y.Cols != RowSize(u, sm.N) {
		panic("ttm: TTMc output shape mismatch")
	}
	flatRows(y, x, sm, nil, u, threads, sched)
}

// TTMcRows computes the TTMc result only for the symbolic row positions
// listed in rows (ascending positions into sm.Rows): y.Row(j) receives
// the row for slice sm.Rows[rows[j]]. The coarse-grain distributed
// algorithm uses this to evaluate exactly its owned set K_n = I_n^k
// (Algorithm 4 lines 3-4, 9-12) from a local tensor that also stores
// nonzeros owned through other modes.
func TTMcRows(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, rows []int32, u []*dense.Matrix, threads int) {
	TTMcRowsSched(y, x, sm, rows, u, threads, par.ScheduleDynamic)
}

// TTMcRowsSched is TTMcRows under an explicit schedule. The balanced
// schedule chains over the selected rows' nonzero weights (computed per
// call — subsets vary, so there is nothing to cache).
func TTMcRowsSched(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, rows []int32, u []*dense.Matrix, threads int, sched par.Schedule) {
	if y.Rows != len(rows) || y.Cols != RowSize(u, sm.N) {
		panic("ttm: TTMcRows output shape mismatch")
	}
	flatRows(y, x, sm, rows, u, threads, sched)
}

// flatRows is the owner-computes row loop behind every flat TTMc entry
// point: output row j is zeroed and then accumulates, in update-list
// order, every nonzero of symbolic row rows[j] (of row j itself when
// rows is nil). The balanced schedule
// chains over the rows' nonzero weights, cached on sm for the full row
// set and computed per call for a subset.
func flatRows(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, rows []int32, u []*dense.Matrix, threads int, sched par.Schedule) {
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
	runRows(sched, y.Rows, threads, chains, func(w, lo, hi int) {
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
	par.ForDynamicWorker(sm.NumRows(), threads, 0, func(w, lo, hi int) {
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
