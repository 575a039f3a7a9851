package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// Engine is a resident decomposition handle: the mutable state a
// long-running service keeps between solves — factor matrices, TRSVD
// workspaces, the memoized dimension-tree partials, and (after the
// first Update) an engine-owned copy of the evolving tensor. Run
// converges from the current factors; Update ingests a coordinate
// delta through the incremental paths of every layer (stable-id COO
// merge, spliced symbolic update lists, per-entry dimension-tree
// invalidation, warm-started TRSVD) and re-converges in a handful of
// sweeps instead of a cold solve.
//
// An Engine is not safe for concurrent use. Several Engines may share
// one Plan; each owns its numeric state, and none mutates the plan or
// the caller's tensor.
type Engine struct {
	plan  *Plan
	opts  Options
	order int

	// Resident tensor-derived state. Until the first Update these alias
	// the plan's (shared, immutable) structures; ensureOwned clones them
	// before the first mutation.
	x     *tensor.COO
	sym   *symbolic.Structure
	owned bool
	// mergeIx amortizes the coordinate lookup across a stream of COO
	// deltas: built once over the engine-owned clone, extended per
	// ingest, so Update cost is proportional to the delta.
	mergeIx *tensor.MergeIndex

	tree *ttm.DTree

	state     *SweepState
	ys        []*dense.Matrix
	normX     float64
	warmReady bool
	firstRun  bool
	// warmBuf holds one reusable per-mode gather buffer for the TRSVD
	// warm-start vectors, so warm re-convergence sweeps stay on the
	// zero-allocation discipline of the cold path.
	warmBuf [][]float64
	// ranksBuf backs currentRanks, keeping the per-sweep core formation
	// allocation-free.
	ranksBuf []int

	flatFlops int64 // flat-kernel madds (the tree keeps its own counter)
	symTime   time.Duration
	res       *Result

	// Checkpointing (EnableCheckpoints) and the one-shot resume state a
	// ResumeEngine-built engine consumes on its first converge.
	ckptDir   string
	ckptEvery int
	resume    *checkpoint.State
}

// NewEngine builds a resident handle on the plan's analysis: the
// dimension tree (when selected) with empty caches, seeded initial
// factors, and per-mode solver workspaces.
func NewEngine(p *Plan) *Engine {
	e := &Engine{
		plan:     p,
		opts:     p.opts,
		order:    p.x.Order(),
		x:        p.x,
		sym:      p.sym,
		normX:    p.normX,
		firstRun: true,
	}
	start := time.Now()
	if p.useTree {
		e.tree = ttm.NewDTree(e.x)
	}
	e.symTime = time.Since(start)
	e.state = NewSweepState(initFactors(p.x, e.opts, startRanks(p.x, e.opts)), e.opts.Seed)
	e.state.Sketch = e.opts.Sketch
	e.state.Oversample = e.opts.Oversample
	e.state.PowerIters = e.opts.PowerIters
	e.ys = make([]*dense.Matrix, e.order)
	e.shapeYs()
	return e
}

// startRanks resolves the per-mode ranks the factors start with: the
// requested Ranks for fixed-rank runs; under Eps, the Initial factors'
// column counts when given and otherwise a small probe rank (adaptive
// selection grows it within a sweep or two).
func startRanks(x *tensor.COO, opts Options) []int {
	if opts.Eps <= 0 {
		return opts.Ranks
	}
	ranks := make([]int, x.Order())
	for n := range ranks {
		switch {
		case opts.Initial != nil:
			ranks[n] = opts.Initial[n].Cols
		default:
			r := 4
			if opts.Ranks != nil && opts.Ranks[n] < r {
				r = opts.Ranks[n]
			}
			if x.Dims[n] < r {
				r = x.Dims[n]
			}
			ranks[n] = r
		}
	}
	return ranks
}

// currentRanks returns the per-mode factor column counts — the live
// ranks, which under Eps evolve between mode solves — in a reused
// buffer (copy before retaining).
func (e *Engine) currentRanks() []int {
	if len(e.ranksBuf) != e.order {
		e.ranksBuf = make([]int, e.order)
	}
	for n, u := range e.state.Factors {
		e.ranksBuf[n] = u.Cols
	}
	return e.ranksBuf
}

// frobSq is ‖y‖²_F with the fixed-block deterministic reduction, so
// adaptive-rank thresholds are bitwise identical for every thread count.
func frobSq(y *dense.Matrix, threads int) float64 {
	return par.SumBlocks(y.Rows, threads, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			row := y.Row(i)
			s += dense.DotUnrolled(row, row)
		}
		return s
	})
}

// Result returns the most recent Run/Update result, or nil before the
// first Run.
func (e *Engine) Result() *Result { return e.res }

// Factors exposes the engine's current factor matrices (live state, not
// a copy).
func (e *Engine) Factors() []*dense.Matrix { return e.state.Factors }

// Tensor returns the engine's current tensor state: the live
// stable-id tensor (do not mutate).
func (e *Engine) Tensor() *tensor.COO { return e.x }

// Run converges the decomposition from the engine's current factors
// (the cold start on the first call, the previous solution afterwards)
// and returns the result. ctx is checked between sweeps; a canceled
// context aborts with its error.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	return e.converge(ctx)
}

// shapeYs (re)allocates the per-mode matricized-product buffers; after
// an update the nonempty-slice counts may have grown.
func (e *Engine) shapeYs() {
	for n := 0; n < e.order; n++ {
		rows := e.sym.Modes[n].NumRows()
		cols := ttm.RowSize(e.state.Factors, n)
		if e.ys[n] == nil || e.ys[n].Rows != rows || e.ys[n].Cols != cols {
			e.ys[n] = dense.NewMatrix(rows, cols)
		}
	}
}

func (e *Engine) flopsTotal() int64 {
	if e.tree != nil {
		return e.tree.Flops()
	}
	return e.flatFlops
}

// warmVec gathers the compact left warm-start vector for mode n into a
// reusable per-mode buffer: the leading column of the current factor at
// the nonempty slices — the scattered leading left singular vector of
// the previous solve. Only the fixed-rank Lanczos solves consume warm
// starts; Eps runs warm their randomized sketches from the workspace
// instead and never call this.
func (e *Engine) warmVec(n int, sm *symbolic.Mode) []float64 {
	u := e.state.Factors[n]
	if u.Cols == 0 {
		return nil
	}
	if e.warmBuf == nil {
		e.warmBuf = make([][]float64, e.order)
	}
	w := e.warmBuf[n]
	if cap(w) < sm.NumRows() {
		w = make([]float64, sm.NumRows())
	}
	w = w[:sm.NumRows()]
	e.warmBuf[n] = w
	for r, row := range sm.Rows {
		w[r] = u.At(int(row), 0)
	}
	return w
}

// converge runs ALS sweeps until the fit stalls or MaxIters is reached.
// It is the loop body shared by Run and Update; the first call matches
// Decompose's cold path bit for bit (no warm starts), later calls
// warm-start every TRSVD from the previous factors.
func (e *Engine) converge(ctx context.Context) (*Result, error) {
	opts := e.opts
	res := &Result{IndexBytes: e.x.IndexBytes()}
	res.Timings.Symbolic = e.symTime
	if e.firstRun {
		res.Timings.Symbolic += e.plan.symbolicTime
	}
	e.symTime = 0
	flops0 := e.flopsTotal()
	var nodeTime0 time.Duration
	if e.tree != nil {
		nodeTime0 = e.tree.NodeTime()
	}

	var memBase runtime.MemStats
	allocFrom := -1
	// The streaming single-pass sketch engages only on warm
	// re-convergence after an Update: there the retained right bases and
	// Ritz energies sit at the previous fixed point, so the first
	// projection usually confirms convergence and the solve ends after
	// one sketch-plus-projection round (the same discipline as the
	// Lanczos warm start). Cold sweeps keep the adaptive power-iterated
	// solves — on nearly flat spectra the early sweeps pick the subspace
	// basin the whole trajectory settles into, and an under-resolved
	// solve there shifts the final fit by far more than it saves.
	e.state.SinglePass = e.warmReady && opts.Eps > 0
	fits := NewFitTracker(e.normX, opts.Tol)
	startIter := 0
	if rs := e.resume; rs != nil {
		// One-shot: a ResumeEngine-built engine continues the
		// interrupted solve from the checkpointed sweep, with the fit
		// trajectory preseeded so stopping decisions are bitwise
		// identical to the uninterrupted run's.
		e.resume = nil
		startIter = rs.Sweep
		fits.Restore(rs.FitHistory)
		res.Core = rs.Core
		res.Iters = rs.Sweep
		if n := len(rs.FitHistory); n > 0 {
			res.Fit = rs.FitHistory[n-1]
		}
		if fits.Stopped() {
			startIter = opts.MaxIters // the original run stopped here
		}
	}
	for iter := startIter; iter < opts.MaxIters; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if opts.MeasureAllocs && allocFrom < 0 && (iter == 1 || opts.MaxIters == 1) {
			// Steady state starts once the sweep-1 arena growth is done
			// (or immediately when there is only one sweep to measure).
			runtime.ReadMemStats(&memBase)
			allocFrom = iter
		}
		for n := 0; n < e.order; n++ {
			sm := &e.sym.Modes[n]
			if opts.Eps > 0 {
				// Adaptive rank resizes factors mid-sweep, so this
				// mode's matricization buffer may need a new column
				// count (∏ of the other modes' current ranks).
				rows := sm.NumRows()
				colsY := ttm.RowSize(e.state.Factors, n)
				if e.ys[n] == nil || e.ys[n].Rows != rows || e.ys[n].Cols != colsY {
					e.ys[n] = dense.NewMatrix(rows, colsY)
				}
			}

			t0 := time.Now()
			if e.tree != nil {
				e.tree.TTMc(e.ys[n], n, e.state.Factors, opts.Threads)
			} else {
				ttm.TTMc(e.ys[n], e.x, sm, e.state.Factors, opts.Threads)
				e.flatFlops += ttm.Flops(e.x.NNZ(), e.ys[n].Cols)
			}
			res.Timings.TTMc += time.Since(t0)

			t0 = time.Now()
			var uc *dense.Matrix
			var matvecs int
			if opts.Eps > 0 {
				tau := opts.Eps * opts.Eps * e.normX * e.normX / float64(e.order)
				capR := 0
				if opts.Ranks != nil {
					capR = opts.Ranks[n]
				}
				var rank int
				var err error
				uc, rank, matvecs, err = e.state.SolveDenseEps(
					e.ys[n], n, e.state.Factors[n].Cols, capR, opts.Threads, tau, frobSq(e.ys[n], opts.Threads))
				if err != nil {
					return nil, fmt.Errorf("core: TRSVD failed in mode %d: %w", n, err)
				}
				if rank != e.state.Factors[n].Cols {
					e.state.Factors[n] = dense.NewMatrix(e.x.Dims[n], rank)
				}
			} else {
				var warm []float64
				if e.warmReady {
					warm = e.warmVec(n, sm)
				}
				var err error
				uc, matvecs, err = e.state.SolveDense(e.ys[n], n, opts.Ranks[n], SVDLanczos, opts.Threads, warm)
				if err != nil {
					return nil, fmt.Errorf("core: TRSVD failed in mode %d: %w", n, err)
				}
			}
			res.TRSVDMadds += int64(matvecs) * int64(e.ys[n].Rows) * int64(e.ys[n].Cols)
			scatterRows(e.state.Factors[n], uc, sm)
			if e.tree != nil {
				e.tree.Invalidate(n)
			}
			res.Timings.TRSVD += time.Since(t0)
		}

		t0 := time.Now()
		last := e.order - 1
		g := ttm.Core(e.ys[last], &e.sym.Modes[last], e.state.Factors[last], e.currentRanks(), opts.Threads)
		res.Core = g
		res.Timings.Core += time.Since(t0)

		fit, stop := fits.Record(g.Norm())
		res.Fit = fit
		res.Iters = iter + 1
		if e.ckptDir != "" && e.ckptEvery > 0 && (iter+1)%e.ckptEvery == 0 {
			if _, err := checkpoint.Save(e.ckptDir, e.midRunState(iter+1, fits.History, g)); err != nil {
				return nil, fmt.Errorf("core: checkpoint at sweep %d: %w", iter+1, err)
			}
		}
		if stop {
			break
		}
	}
	res.FitHistory = fits.History
	if allocFrom >= 0 && res.Iters > allocFrom {
		var memEnd runtime.MemStats
		runtime.ReadMemStats(&memEnd)
		res.AllocsPerSweep = int64(memEnd.Mallocs-memBase.Mallocs) / int64(res.Iters-allocFrom)
	}
	res.TTMcFlops = e.flopsTotal() - flops0
	if e.tree != nil {
		res.Timings.TTMcNodes = e.tree.NodeTime() - nodeTime0
	}
	res.Factors = e.state.Factors
	res.ChosenRanks = append([]int(nil), e.currentRanks()...)
	e.firstRun = false
	e.warmReady = true
	e.res = res
	return res, nil
}

// ensureOwned clones the shared plan structures the first time the
// engine is about to mutate them, and rebinds the dimension tree onto
// the clone (its caches stay valid — the clone is bit-identical). The
// plan, and the caller's tensor, are never touched by updates.
func (e *Engine) ensureOwned() {
	if e.owned {
		return
	}
	e.owned = true
	e.sym = e.sym.Clone()
	e.x = e.x.Clone()
	if e.tree != nil {
		e.tree.Rebind(e.x)
	}
}

// Update ingests a coordinate delta — appended and changed nonzeros,
// duplicates summed — and re-converges from the current factors. The
// delta flows through the incremental path of every layer: the tensor
// merge keeps existing storage positions stable and appends new
// coordinates at the tail, the symbolic update lists of touched slices
// are spliced rather than rebuilt, the dimension tree marks exactly the
// entries whose group changed as dirty and recomputes only those, and
// every TRSVD is warm-started from the previous factors. The result
// carries the update accounting: sweeps to re-converge, the TTMc madds
// actually executed, and the recompute-everything cost they replace
// (FullSweepMadds).
//
// A validation error (shape mismatch, out-of-range coordinate) leaves
// the engine state untouched.
func (e *Engine) Update(delta *tensor.COO) (*Result, error) {
	return e.UpdateContext(context.Background(), delta)
}

// UpdateContext is Update with sweep-level cancellation.
func (e *Engine) UpdateContext(ctx context.Context, delta *tensor.COO) (*Result, error) {
	e.ensureOwned()
	start := time.Now()
	oldNNZ := e.x.NNZ()
	if e.mergeIx == nil {
		e.mergeIx = e.x.NewMergeIndex()
	}
	info, err := e.x.MergeIndexed(delta, e.mergeIx)
	if err != nil {
		return nil, err
	}
	if info.Appended > 0 {
		if _, err := e.sym.Insert(e.x, oldNNZ); err != nil {
			return nil, fmt.Errorf("core: incremental symbolic maintenance failed: %w", err)
		}
	}
	if e.tree != nil {
		e.tree.ApplyDelta(info.Updated, oldNNZ)
	}
	e.normX = e.x.Norm(e.opts.Threads)
	e.shapeYs()
	e.symTime += time.Since(start)

	res, err := e.converge(ctx)
	if err != nil {
		return nil, err
	}
	res.UpdateSweeps = res.Iters
	res.UpdateMadds = res.TTMcFlops
	res.FullSweepMadds = ttm.SweepFlops(e.x.NNZ(), e.state.Factors)
	res.DeltaNNZ = len(info.Updated) + info.Appended
	return res, nil
}
