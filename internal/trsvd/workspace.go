package trsvd

import "hypertensor/internal/dense"

// Workspace holds every buffer the iterative solvers need between
// calls: Krylov bases, block panels, projected matrices, reduction
// scratch, and the small-SVD workspace. HOOI calls a TRSVD solver once
// per mode per sweep on matrices whose shapes repeat exactly, so a
// workspace threaded through Options.Work makes the steady-state sweep
// allocate (almost) nothing — only the returned Result.U is fresh.
//
// The zero value is ready to use; buffers grow on demand and are kept
// at high-water size. A workspace is not safe for concurrent use: give
// each goroutine (each simulated rank, each benchmark worker) its own.
type Workspace struct {
	svd dense.SVDWork

	// Lanczos: Krylov bases stored as matrix rows, recurrence
	// coefficients, reorthogonalization coefficients, and the projected
	// bidiagonal.
	vb, ub        *dense.Matrix
	vbView        dense.Matrix
	alphas, betas []float64
	coeff         []float64
	bidiag        *dense.Matrix
	vecRows       []float64
	vecCols       []float64

	// Small vectors shared by ritz extraction and basis completion.
	col, other []float64

	// Randomized sketch solver: the sketch, the sketched range, the
	// power-iteration panel, the b x b Gram, the leading projected left
	// vectors, the transposed panel the CGS2 orthonormalization streams
	// over, the projected B = AᵀQ panel, the two Gram-whitening
	// combinations and their product, the whitened panel, and the
	// persisted right singular basis that seeds the next single-pass
	// (streaming) sketch.
	panelW, panelY, panelZ *dense.Matrix
	gram, vk               *dense.Matrix
	sketchT, panelB        *dense.Matrix
	white, white2          *dense.Matrix
	qpanel, gram2          *dense.Matrix
	vPrev                  *dense.Matrix
	// sigStream carries the previous solve's top-k Ritz energies between
	// streaming solves: the first convergence check of a warm solve
	// compares against it, ending the solve single-pass once the
	// operator has stopped moving.
	sigStream []float64

	// RangeFinder: counting-sort row grouping (permutation + offsets)
	// and the sketch output matrix.
	rfPerm, rfOff []int32
	rfOut         *dense.Matrix
}

// NewWorkspace returns an empty workspace ready for Options.Work.
func NewWorkspace() *Workspace { return &Workspace{} }

// work returns the caller-supplied workspace, or a throwaway one so
// the solvers run identically (just with allocations) when none is
// given.
func (o Options) work() *Workspace {
	if o.Work != nil {
		return o.Work
	}
	return &Workspace{}
}
