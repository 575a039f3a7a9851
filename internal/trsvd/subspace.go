package trsvd

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
)

// SubspaceIteration computes the k leading left singular vectors with
// randomized block subspace iteration on the column space: the iterate
// W (cols x b, replicated) is refreshed as W <- orth(Aᵀ(A·W)), so the
// only distributed operations are the operator applications — no
// distributed QR is ever needed. After convergence the left vectors are
// recovered as U = A·W·Q·diag(1/sigma) from the small projected
// eigenproblem. It serves as the ablation alternative to Lanczos
// (docs/architecture.md, "Kernel choices and their ablations") and as
// an independent cross-check in tests.
//
// The refresh is blocked: the whole W panel moves through the operator
// in two BLAS3 passes (MatMat/MatTMat) instead of one GEMV pair per
// column, and the two W panels double-buffer workspace storage
// allocated once, so iterations neither allocate panels nor copy
// columns.
func SubspaceIteration(op Operator, k int, opts Options) (*Result, error) {
	cols := op.Cols()
	if k <= 0 {
		return nil, fmt.Errorf("trsvd: k = %d must be positive", k)
	}
	if k > cols {
		return nil, fmt.Errorf("trsvd: k = %d exceeds column count %d", k, cols)
	}
	rows := op.LocalRows()
	blk := k + 4
	if blk > cols {
		blk = cols
	}
	maxIters := opts.MaxDim
	if maxIters <= 0 {
		maxIters = 40
	}
	tol := opts.tol()
	ws := opts.work()

	res := &Result{}
	colID := func(i int) int64 { return int64(i) }

	// W: cols x blk replicated iterate, deterministic start; next is the
	// second buffer of the double-buffered refresh.
	w := dense.ReuseMatrix(ws.panelW, cols, blk)
	ws.panelW = w
	next := dense.ReuseMatrix(ws.panelW2, cols, blk)
	ws.panelW2 = next
	y := dense.ReuseMatrix(ws.panelY, rows, blk)
	ws.panelY = y
	col := dense.ReuseVec(ws.colIn, cols)
	ws.colIn = col
	for j := 0; j < blk; j++ {
		hashUnit(col, opts.Seed+int64(j)+1, colID)
		for i := 0; i < cols; i++ {
			w.Set(i, j, col[i])
		}
	}
	orthColumns(w)

	prev := dense.ReuseVec(ws.prevSig, k)
	ws.prevSig = prev
	for iter := 0; iter < maxIters; iter++ {
		// W <- orth(A^T A W): the whole panel in two block passes.
		opMatMat(op, w, y, ws, &res.MatVecs)
		opMatTMat(op, y, next, ws, &res.MatVecs)
		orthColumns(next)
		w, next = next, w

		// Projected Gram: S = W^T A^T A W via one more operator sweep
		// every convergence check; estimate sigma from its eigenvalues.
		sig := projectedSigmas(op, w, y, ws, &res.MatVecs)
		converged := iter > 0
		for i := 0; i < k; i++ {
			den := math.Max(sig[i], 1e-300)
			if math.Abs(sig[i]-prev[i]) > tol*den {
				converged = false
			}
		}
		copy(prev, sig[:k])
		if converged {
			res.Converged = true
			break
		}
	}

	// Recover left vectors: B = A W (rows x blk local), projected Gram
	// S = B^T B = Q Λ Q^T, U = B Q Λ^{-1/2}. B is transposed into
	// contiguous rows once so the RowDot pairs and the final combination
	// stream contiguous memory.
	opMatMat(op, w, y, ws, &res.MatVecs)
	bt := dense.ReuseMatrix(ws.bt, blk, rows)
	ws.bt = bt
	for i := 0; i < rows; i++ {
		row := y.Row(i)
		for j, v := range row {
			bt.Data[j*rows+i] = v
		}
	}
	s := dense.ReuseMatrix(ws.gram, blk, blk)
	ws.gram = s
	for a := 0; a < blk; a++ {
		ca := bt.Row(a)
		for c := a; c < blk; c++ {
			d := op.RowDot(ca, bt.Row(c))
			s.Set(a, c, d)
			s.Set(c, a, d)
		}
	}
	q, lam, _ := ws.svd.SVD(s) // symmetric PSD: SVD == eigendecomposition
	u := dense.NewMatrix(rows, k)
	sigma := make([]float64, k)
	acc := dense.ReuseVec(ws.col, rows)
	ws.col = acc
	for j := 0; j < k; j++ {
		sv := math.Sqrt(math.Max(lam[j], 0))
		sigma[j] = sv
		if sv <= 1e-300 {
			continue // left as zero; completed below
		}
		zero(acc)
		for t := 0; t < blk; t++ {
			if wgt := q.At(t, j); wgt != 0 {
				axpyLocal(wgt/sv, bt.Row(t), acc)
			}
		}
		for i := 0; i < rows; i++ {
			u.Set(i, j, acc[i])
		}
	}
	completeBasis(op, u, sigma, opts, ws)
	res.U = u
	res.Sigma = sigma
	return res, nil
}

// projectedSigmas estimates the leading singular values from the
// projected Gram matrix Wᵀ Aᵀ A W: two block operator passes and one
// small BLAS3 product (all into workspace panels), replicated so no
// RowDot is needed. The returned slice is workspace-owned.
func projectedSigmas(op Operator, w, y *dense.Matrix, ws *Workspace, matvecs *int) []float64 {
	blk := w.Cols
	z := dense.ReuseMatrix(ws.panelZ, w.Rows, blk)
	ws.panelZ = z
	opMatMat(op, w, y, ws, matvecs)
	opMatTMat(op, y, z, ws, matvecs) // z = A^T A w, replicated
	g := dense.ReuseMatrix(ws.gram, blk, blk)
	ws.gram = g
	dense.MatMulTAInto(g, w, z, 1)
	_, lam, _ := ws.svd.SVD(g)
	out := dense.ReuseVec(ws.sig, blk)
	ws.sig = out
	for i := range lam {
		out[i] = math.Sqrt(math.Max(lam[i], 0))
	}
	return out
}

// orthColumns orthonormalizes the columns of m in place (replicated
// small matrix: plain QR).
func orthColumns(m *dense.Matrix) {
	q := dense.Orthonormalize(m)
	copy(m.Data, q.Data)
}

// GramSVD computes the k leading left singular vectors of a dense matrix
// through the explicit column-side Gram matrix G = AᵀA (cols x cols):
// eigenvectors V of G give U = A V Σ^{-1}, formed in one BLAS3 pass
// per step. With the paper's shapes the column count is the small
// ∏R_t, so this direct method is feasible in shared memory and serves
// as the third ablation point. (The row-side Gram Y·Yᵀ the paper rules
// out would be I_n x I_n — exactly the infeasible case §III.A.2
// describes.) opts supplies the seed for the deterministic completion
// of rank-deficient bases — the same seed the iterative solvers use, so
// restarted bases stay reproducible across solvers — and optionally a
// workspace.
func GramSVD(a *dense.Matrix, k, threads int, opts Options) (*Result, error) {
	if k <= 0 || k > a.Cols {
		return nil, fmt.Errorf("trsvd: invalid k = %d for %d columns", k, a.Cols)
	}
	ws := opts.work()
	g := dense.ReuseMatrix(ws.gram, a.Cols, a.Cols)
	ws.gram = g
	dense.MatMulTAInto(g, a, a, threads)
	v, lam, _ := ws.svd.SVD(g)
	// Pack the k leading eigenvectors and form U = A·V_k·Σ^{-1} with one
	// GEMM; null directions keep a zero column for completeBasis.
	vk := dense.ReuseMatrix(ws.vk, a.Cols, k)
	ws.vk = vk
	sigma := make([]float64, k)
	inv := dense.ReuseVec(ws.sig, k)
	ws.sig = inv
	for j := 0; j < k; j++ {
		sv := math.Sqrt(math.Max(lam[j], 0))
		sigma[j] = sv
		if sv <= 1e-300 {
			continue
		}
		inv[j] = 1 / sv
		for i := 0; i < a.Cols; i++ {
			vk.Set(i, j, v.At(i, j))
		}
	}
	u := dense.NewMatrix(a.Rows, k)
	dense.MatMulInto(u, a, vk, threads)
	for i := 0; i < u.Rows; i++ {
		row := u.Row(i)
		for j, s := range inv {
			row[j] *= s
		}
	}
	op := &DenseOperator{A: a, Threads: threads}
	completeBasis(op, u, sigma, opts, ws)
	return &Result{U: u, Sigma: sigma, Converged: true}, nil
}
