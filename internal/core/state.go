package core

import (
	"math"

	"hypertensor/internal/dense"
	"hypertensor/internal/trsvd"
)

// SweepState is the resident per-mode numeric state every HOOI variant
// carries between sweeps: the factor matrices, one reusable TRSVD
// workspace arena per mode, and the monotone TRSVD seed schedule. The
// shared-memory Engine, the MET baseline, and each simulated
// distributed rank all iterate on this same state type, so warm starts
// and workspace reuse behave identically across the execution models.
type SweepState struct {
	// Factors are the current factor matrices U_n (I_n x R_n).
	Factors []*dense.Matrix
	// Work holds one reusable TRSVD workspace per mode: each mode's
	// solver sees the same operator shape every sweep, so after the
	// first sweep the iteration loops allocate (almost) nothing.
	Work []*trsvd.Workspace
	// SeedBase is the decomposition seed; solve s draws start vectors
	// from SeedBase + 7919*s.
	SeedBase int64
	// Step counts completed mode solves across the state's lifetime, so
	// re-convergence sweeps after an update keep drawing fresh
	// deterministic seeds instead of replaying the first sweep's.
	Step int64
	// Sketch, Oversample and PowerIters configure the randomized solver
	// of SolveDenseEps (passed through to trsvd.Options on every solve).
	Sketch     trsvd.SketchKind
	Oversample int
	PowerIters int
	// SinglePass switches the randomized solver to its streaming variant
	// (sketch seeded from the previous solve's right basis, previous
	// Ritz energies feeding the first convergence check). The Engine
	// raises it once warm re-convergence begins, mirroring the Lanczos
	// warm-start discipline.
	SinglePass bool
}

// NewSweepState wraps initial factors (owned by the state from here on)
// with fresh per-mode workspaces.
func NewSweepState(factors []*dense.Matrix, seed int64) *SweepState {
	s := &SweepState{
		Factors:  factors,
		Work:     make([]*trsvd.Workspace, len(factors)),
		SeedBase: seed,
	}
	for n := range s.Work {
		s.Work[n] = trsvd.NewWorkspace()
	}
	return s
}

// next builds the options of the upcoming solve and advances the seed
// schedule.
func (s *SweepState) next(n int, warm []float64) trsvd.Options {
	o := trsvd.Options{
		Seed: s.SeedBase + 7919*s.Step, Work: s.Work[n], WarmLeft: warm,
		Sketch: s.Sketch, Oversample: s.Oversample, PowerIters: s.PowerIters,
		SinglePass: s.SinglePass,
	}
	s.Step++
	return o
}

// SolveDense runs the Lanczos TRSVD on the compacted matricized tensor
// for mode n and returns its |J_n| x rank left singular vector block
// plus the solver's operator-application count. warm optionally
// supplies a left warm-start vector (see trsvd.Options.WarmLeft). The
// method argument is ignored: SVDLanczos is the only solver, and the
// parameter stays only so existing per-layer benchmark callers keep
// compiling.
func (s *SweepState) SolveDense(y *dense.Matrix, n, rank int, _ SVDMethod, threads int, warm []float64) (*dense.Matrix, int, error) {
	r, err := trsvd.Lanczos(&trsvd.DenseOperator{A: y, Threads: threads}, rank, s.next(n, warm))
	if err != nil {
		return nil, 0, err
	}
	return r.U, r.MatVecs, nil
}

// SolveDenseEps runs the randomized solver with epsilon-truncation
// adaptive rank: starting from the guess (typically the mode's previous
// rank), the sketch grows geometrically until the sketched spectrum
// crosses the per-mode threshold tau = eps²·‖X‖²/N or the cap is hit,
// and the rank is the number of retained directions (trsvd.
// EpsRankSelect). frob2 is ‖Y_(n)‖²_F, the energy budget the tail is
// measured against. Returns the compacted rank-column basis, the chosen
// rank, and the accumulated operator-application count.
func (s *SweepState) SolveDenseEps(y *dense.Matrix, n, guess, capR, threads int, tau, frob2 float64) (*dense.Matrix, int, int, error) {
	maxR := y.Cols
	if y.Rows < maxR {
		maxR = y.Rows
	}
	if capR > 0 && capR < maxR {
		maxR = capR
	}
	if maxR < 1 {
		maxR = 1
	}
	k := guess
	if k < 1 {
		k = 1
	}
	if k > maxR {
		k = maxR
	}
	matvecs := 0
	for {
		r, err := trsvd.Randomized(&trsvd.DenseOperator{A: y, Threads: threads}, k, s.next(n, nil))
		if err != nil {
			return nil, 0, 0, err
		}
		matvecs += r.MatVecs
		rank, grow := trsvd.EpsRankSelect(r.Sigma, frob2, tau)
		if rank > maxR {
			rank = maxR
		}
		if !grow || k >= maxR {
			if rank == r.U.Cols {
				return r.U, rank, matvecs, nil
			}
			u := dense.NewMatrix(r.U.Rows, rank)
			for i := 0; i < u.Rows; i++ {
				copy(u.Row(i), r.U.Row(i)[:rank])
			}
			return u, rank, matvecs, nil
		}
		k *= 2
		if k > maxR {
			k = maxR
		}
	}
}

// SolveOperator runs the Lanczos TRSVD on a matrix-free (possibly
// distributed) operator for mode n — the path the simulated ranks and
// the MET baseline use.
func (s *SweepState) SolveOperator(op trsvd.Operator, n, rank int, warm []float64) (*trsvd.Result, error) {
	return trsvd.Lanczos(op, rank, s.next(n, warm))
}

// FitTracker accumulates the per-sweep fit trajectory and implements
// the shared stopping rule: stop when the fit improves by less than Tol
// between sweeps (Tol <= 0 never stops early).
type FitTracker struct {
	NormX   float64
	Tol     float64
	History []float64
	prev    float64
}

// NewFitTracker starts a trajectory for a tensor of the given norm.
func NewFitTracker(normX, tol float64) *FitTracker {
	return &FitTracker{NormX: normX, Tol: tol, prev: math.Inf(-1)}
}

// Record appends the sweep's fit (computed from the core norm via
// FitFromNorms) and reports whether the iteration should stop.
func (f *FitTracker) Record(normG float64) (fit float64, stop bool) {
	fit = FitFromNorms(f.NormX, normG)
	f.History = append(f.History, fit)
	stop = f.Tol > 0 && math.Abs(fit-f.prev) < f.Tol
	f.prev = fit
	return fit, stop
}

// Restore preseeds the tracker with the fit history of an interrupted
// run, so the next Record extends the trajectory exactly as the
// uninterrupted run would have: the comparison baseline is the last
// restored fit (or -Inf when the history is empty).
func (f *FitTracker) Restore(history []float64) {
	f.History = append(f.History[:0], history...)
	f.prev = math.Inf(-1)
	if n := len(f.History); n > 0 {
		f.prev = f.History[n-1]
	}
}

// Stopped re-derives the stopping decision from the restored history:
// true when the last two fits already satisfied the stopping rule. A
// resumed loop must then run no further sweeps — the uninterrupted run
// stopped at exactly that sweep.
func (f *FitTracker) Stopped() bool {
	n := len(f.History)
	return f.Tol > 0 && n >= 2 && math.Abs(f.History[n-1]-f.History[n-2]) < f.Tol
}

// FitFromNorms computes 1 - ||X - X̂||/||X|| using the orthonormality
// identity ||X - X̂||² = ||X||² - ||G||² (the paper's convergence
// measure, Algorithm 1 line 7).
func FitFromNorms(normX, normG float64) float64 {
	diff := normX*normX - normG*normG
	if diff < 0 {
		diff = 0 // rounding: G cannot exceed X in norm
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(diff)/normX
}
