package core

import (
	"context"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// Timings accumulates wall-clock time per HOOI phase across all
// iterations; it backs the Table IV / Table V breakdowns.
type Timings struct {
	// Convert is the one-time storage-format construction. COO is the
	// only storage and needs none, so it is always 0; the field stays
	// for reports that break setup down by phase.
	Convert  time.Duration
	Symbolic time.Duration // one-time symbolic TTMc preprocessing (and, for updates, the incremental maintenance)
	TTMc     time.Duration
	// TTMcNodes is the share of TTMc spent recomputing internal
	// dimension-tree nodes (zero for the flat strategy); the remainder
	// of TTMc is leaf emission.
	TTMcNodes time.Duration
	TRSVD     time.Duration
	Core      time.Duration
}

// Total returns the summed iteration time: TTMc + TRSVD + Core. The
// one-time Symbolic and Convert phases are both excluded — Total is the
// recurring per-sweep cost, not the end-to-end wall time.
func (t Timings) Total() time.Duration { return t.TTMc + t.TRSVD + t.Core }

// Result is a computed Tucker decomposition [[G; U_1, ..., U_N]].
type Result struct {
	// Factors are the orthonormal factor matrices U_n (I_n x R_n). Rows
	// whose slices are empty in X are zero.
	Factors []*dense.Matrix
	// Core is the dense core tensor G of shape Ranks.
	Core *tensor.Dense
	// Fit is 1 - ||X - X̂||_F / ||X||_F of the final decomposition.
	Fit float64
	// FitHistory records the fit after every ALS sweep.
	FitHistory []float64
	// Iters is the number of completed ALS sweeps.
	Iters int
	// Timings is the phase breakdown.
	Timings Timings
	// TTMcFlops is the multiply-add count of all TTMc work performed
	// (dominant AXPY terms): for the flat strategy, modes x sweeps x
	// nnz x row size; for the dimension tree, the memoized — typically
	// much smaller — actual count.
	TTMcFlops int64
	// IndexBytes is the coordinate index storage: N x nnz x 4 bytes.
	IndexBytes int64
	// AllocsPerSweep is the steady-state heap allocation count per ALS
	// sweep (the first sweep, which grows the workspace arenas, is
	// excluded). Only measured when Options.MeasureAllocs is set; zero
	// otherwise.
	AllocsPerSweep int64
	// ChosenRanks are the per-mode ranks the decomposition ended with:
	// equal to Options.Ranks for fixed-rank runs, the eps-selected ranks
	// for adaptive-rank (Options.Eps) runs.
	ChosenRanks []int
	// TRSVDMadds counts the operator multiply-adds spent inside the
	// TRSVD solves (operator applications x matricization size, summed
	// over all solves) — for an Eps run, the sketch solver's panel flops.
	TRSVDMadds int64

	// Update accounting, populated by Engine.Update (zero for cold
	// solves): the dirty-subtree cost of the re-convergence versus the
	// recompute-everything cost it replaced.

	// UpdateSweeps is the number of ALS sweeps the re-convergence took.
	UpdateSweeps int
	// UpdateMadds is the TTMc multiply-add count actually executed
	// during the re-convergence (dirty dimension-tree entries plus leaf
	// emissions, or the flat-kernel count).
	UpdateMadds int64
	// FullSweepMadds is the multiply-add count of ONE recompute-
	// everything flat sweep over all modes at the post-update tensor
	// size — the cold-sweep yardstick UpdateMadds/UpdateSweeps is
	// measured against.
	FullSweepMadds int64
	// DeltaNNZ is the number of delta nonzeros ingested (after in-delta
	// deduplication): value changes plus insertions.
	DeltaNNZ int
}

// Decompose runs the shared-memory parallel HOOI algorithm
// (Algorithm 3) on a sparse tensor. It is deterministic for fixed
// Options regardless of thread count: each Y row is accumulated in
// symbolic order by a single worker, and the TRSVD start vectors are
// seeded.
//
// Decompose is a thin wrapper over the resident Plan/Engine pair —
// NewPlan (one-time symbolic analysis) + NewEngine + Run — that throws
// the handle away afterwards. Long-running callers that want to ingest
// tensor deltas and re-converge incrementally should hold the Engine
// instead.
func Decompose(x *tensor.COO, optsIn Options) (*Result, error) {
	p, err := NewPlan(x, optsIn)
	if err != nil {
		return nil, err
	}
	return NewEngine(p).Run(context.Background())
}

// scatterRows writes the compact TRSVD result (one row per nonempty
// slice) into the full factor matrix, zeroing rows of empty slices.
func scatterRows(full, compact *dense.Matrix, sm *symbolic.Mode) {
	full.Zero()
	for r, row := range sm.Rows {
		copy(full.Row(int(row)), compact.Row(r))
	}
}

// fitFromNorms is the package-private spelling of FitFromNorms kept for
// the ST-HOSVD path.
func fitFromNorms(normX, normG float64) float64 { return FitFromNorms(normX, normG) }
