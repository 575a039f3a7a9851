package bench

import (
	"fmt"
	"io"

	"hypertensor/internal/core"
	"hypertensor/internal/tensor"
)

// solverEps is the fixed relative-error target the adaptive-rank cell
// runs at. The chosen ranks it yields are deterministic for a fixed
// dataset and seed, so the CI gate compares them against the committed
// baseline (with a small per-mode slack for spectrum rounding at the
// threshold).
const solverEps = 0.25

// epsRankSlack is the per-mode tolerance of the eps-ranks gate: the
// threshold crossing sits on a float compare, so a legitimate kernel
// change can move a borderline rank by one or two without the accuracy
// contract degrading.
const epsRankSlack = 2

// SolverCell is one dataset's TRSVD cell, measured with the default
// flat TTMc: the fixed-rank Lanczos solve (per-sweep TRSVD seconds
// min-of-reps and its operator madds) and the per-mode ranks the
// adaptive-rank path (Options.Eps = solverEps, the randomized sketch
// solver) selects. Madds and EpsRanks are deterministic and gated
// against the committed baseline; they are the regression signals for
// the Lanczos solver and the epsilon-truncation machinery.
type SolverCell struct {
	LanczosTRSVDSec float64 `json:"lanczos_trsvd_sec"`
	LanczosMadds    int64   `json:"lanczos_madds"`
	Eps             float64 `json:"eps"`
	EpsRanks        []int   `json:"eps_ranks"`
}

// SolverCompare measures one tensor's TRSVD cell: a fixed-rank Lanczos
// solve at the given ranks, sweep budget, seed, and thread count (TRSVD
// seconds min-of-reps, like every wall-clock measurement here), plus
// one adaptive-rank solve at Eps = solverEps to record the selected
// per-mode ranks.
func SolverCompare(x *tensor.COO, ranks []int, iters, reps, threads int, seed int64) (*SolverCell, error) {
	if reps < 1 {
		reps = 1
	}
	base := core.Options{
		Ranks:    ranks,
		MaxIters: iters,
		Tol:      -1,
		Threads:  threads,
		Seed:     seed,
	}
	cell := &SolverCell{Eps: solverEps, LanczosTRSVDSec: -1}
	for rep := 0; rep < reps; rep++ {
		r, err := core.Decompose(x, base)
		if err != nil {
			return nil, fmt.Errorf("lanczos: %w", err)
		}
		sec := r.Timings.TRSVD.Seconds() / float64(r.Iters)
		if cell.LanczosTRSVDSec < 0 || sec < cell.LanczosTRSVDSec {
			cell.LanczosTRSVDSec = sec
		}
		cell.LanczosMadds = r.TRSVDMadds
	}

	// Adaptive rank: cap each mode a little above the fixed rank so the
	// eps run stays bounded while leaving the selector free to land
	// above or below the paper rank.
	caps := make([]int, len(ranks))
	for n, r := range ranks {
		caps[n] = r + 8
		if caps[n] > x.Dims[n] {
			caps[n] = x.Dims[n]
		}
	}
	opts := base
	opts.Ranks = caps
	opts.Eps = solverEps
	r, err := core.Decompose(x, opts)
	if err != nil {
		return nil, fmt.Errorf("solver eps=%g: %w", solverEps, err)
	}
	cell.EpsRanks = append([]int(nil), r.ChosenRanks...)
	return cell, nil
}

// renderSolverTable prints the per-dataset TRSVD cells of a scaling
// report.
func renderSolverTable(rep *ScalingReport, w io.Writer) {
	t := &Table{
		Title:   "TRSVD: fixed-rank Lanczos and eps-selected ranks (sketch solver)",
		Headers: []string{"Tensor", "lanczos s", "lanczos madds", "eps", "eps ranks"},
	}
	for _, row := range rep.Rows {
		s := row.Solver
		if s == nil {
			continue
		}
		t.AddRow(row.Dataset, secs(s.LanczosTRSVDSec), humanCount(s.LanczosMadds),
			fmt.Sprintf("%g", s.Eps), fmt.Sprintf("%v", s.EpsRanks))
	}
	t.Render(w)
}
