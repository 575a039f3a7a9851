// Package trsvd computes a few leading singular triplets of a large
// dense (possibly distributed) matrix, standing in for the PETSc+SLEPc
// solvers the paper links against (§III.A.2, §III.B).
//
// Every fixed-rank TRSVD runs Lanczos, the paper's method:
// Golub–Kahan–Lanczos bidiagonalization with full reorthogonalization
// and warm starts (Options.WarmLeft) for the resident engine's
// re-convergence sweeps. It reaches the matrix only through the
// matrix-free Operator interface — MatVec (y = Ax), MatTVec (x = Aᵀy)
// and RowDot — so the same driver runs on local rows, on the
// coarse-grain row-distributed Y_(n), and on the fine-grain
// sum-distributed Y_(n), whose operators implement the paper's
// y-fold / x-allreduce communication scheme.
//
// Randomized, a sketched range finder (CholeskyQR2-whitened, adaptive
// Ritz-converged power rounds, and a streaming single-pass variant for
// the update path), is the engine of adaptive rank selection only:
// together with EpsRankSelect it backs core.Options.Eps. It works on a
// shared-memory DenseOperator through BLAS3 panel products.
//
// Solver workspaces are reusable across sweeps and allocation-free in
// steady state.
package trsvd
