package core

import (
	"fmt"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
)

// ScheduleBalanced names the one loop schedule: weight-balanced row
// chains with work-stealing, which every parallel TTMc loop runs. It is
// kept only for the frozen per-layer benchmark (perfbench/layers.go).
const ScheduleBalanced = 0

// InitMethod selects how the factor matrices are initialized (HOOI
// Algorithm 1, line 1).
type InitMethod int

const (
	// InitRandom draws Gaussian matrices and orthonormalizes them.
	InitRandom InitMethod = iota
	// InitHOSVD uses a single-pass randomized range finder on each
	// sparse matricization X_(n): U_n = orth(X_(n)·Ω). This is the
	// practical sparse stand-in for the higher-order SVD start the
	// paper mentions; the exact HOSVD would require singular vectors of
	// matrices with ∏_{t≠n} I_t columns, which is exactly what
	// §III.A.2 rules out.
	InitHOSVD
)

// TTMcStrategy selects how the N per-mode TTMc products of one HOOI
// sweep are computed.
type TTMcStrategy int

const (
	// TTMcFlat recomputes every mode's product from the nonzeros with
	// the row-parallel kernel over the per-mode update lists
	// (Algorithm 3). It is the reference path.
	TTMcFlat TTMcStrategy = iota
	// TTMcDTree memoizes partial contractions shared between the modes
	// in a binary dimension tree (ttm.DTree): internal nodes cache the
	// semi-sparse product over their mode set and are recomputed only
	// when a factor in their contracted complement changes, cutting the
	// TTMc multiply-adds per sweep several-fold (see bench.DTreeCompare).
	// On the cold-4mode benchmark shape (Delicious-like, 280k nonzeros,
	// ranks 5, 2 threads) it does 3.7x fewer madds than TTMcFlat but
	// spends only ~1.4x less TTMc time, since the flat path runs the
	// fused Kronecker kernel and the tree spends about half its time
	// recomputing internal nodes. The numeric results match TTMcFlat to
	// rounding and remain deterministic for any thread count. An
	// order-1 tensor has no tree to build and runs the flat kernel.
	TTMcDTree
)

// SVDMethod names a TRSVD solver. Fixed-rank HOOI always runs Lanczos,
// so SVDLanczos is the only value; the type remains because
// SweepState.SolveDense still takes a method argument that existing
// per-layer benchmark callers pass.
type SVDMethod int

// SVDLanczos is Golub–Kahan–Lanczos bidiagonalization, the paper's
// (SLEPc) method and the solver of every fixed-rank TRSVD.
const SVDLanczos SVDMethod = 0

// SketchKind re-exports trsvd.SketchKind for Options.Sketch.
type SketchKind = trsvd.SketchKind

const (
	// SketchGauss is the dense counter-based pseudo-Gaussian sketch
	// (the default).
	SketchGauss = trsvd.SketchGauss
	// SketchCount is the one-nonzero-per-row CountSketch.
	SketchCount = trsvd.SketchCount
)

// Options configure a Tucker/HOOI decomposition.
type Options struct {
	// Ranks holds the target rank R_n per mode. Required for fixed-rank
	// runs; optional under Eps, where it caps the adaptive per-mode
	// ranks.
	Ranks []int
	// Eps, when positive, switches to adaptive (epsilon-truncation) rank
	// selection: each mode's rank is chosen from the sketched spectrum
	// so the estimated tail energy stays below the per-mode threshold
	// eps²·‖X‖²/N (the BTAS threshold split), growing the sketch
	// geometrically until the bound is certified. The decomposition then
	// satisfies ‖X − X̂‖ ≲ eps·‖X‖. Every TRSVD of an Eps run uses the
	// randomized sketch solver (trsvd.Randomized); fixed-rank runs
	// (Eps == 0) use Lanczos. Must lie in (0, 1].
	Eps float64
	// Sketch selects the randomized solver's sketching operator
	// (SketchGauss by default). Eps runs only: Validate rejects a
	// non-default value when Eps is 0.
	Sketch SketchKind
	// Oversample adds extra sketch columns beyond the target rank in the
	// randomized solver (0 selects 8). Eps runs only, like Sketch.
	Oversample int
	// PowerIters caps the randomized solver's power-iteration rounds
	// (0 selects 6, negative selects none); the solver stops below the
	// cap as soon as its Ritz energies settle. Eps runs only, like
	// Sketch.
	PowerIters int
	// MaxIters caps the number of ALS sweeps. 0 selects 50; negative
	// is an error.
	MaxIters int
	// Tol stops the iteration when the fit improves by less than this
	// between sweeps. 0 selects 1e-5. Negative disables the test (run
	// exactly MaxIters sweeps), which the paper's benchmarks use.
	Tol float64
	// Threads bounds shared-memory parallelism; 0 uses GOMAXPROCS;
	// negative is an error. Results are bitwise identical for every
	// thread count.
	Threads int
	// Init selects the factor initialization.
	Init InitMethod
	// TTMc selects the TTMc evaluation strategy (flat reference path or
	// memoized dimension tree).
	TTMc TTMcStrategy
	// Seed makes the whole decomposition deterministic.
	Seed int64
	// MeasureAllocs records the steady-state heap allocation count per
	// sweep in Result.AllocsPerSweep (two runtime.ReadMemStats calls per
	// decomposition). Off by default; the benchmark harness turns it on.
	MeasureAllocs bool
	// Initial optionally supplies explicit initial factor matrices
	// (I_n x R_n), overriding Init — used for warm starts and for
	// equivalence testing against the distributed algorithm. The
	// matrices are copied, not mutated.
	Initial []*dense.Matrix
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxIters == 0 {
		out.MaxIters = 50
	}
	if out.Tol == 0 {
		out.Tol = 1e-5
	}
	return out
}

// Validate checks the options against a tensor's shape.
func (o *Options) Validate(x *tensor.COO) error {
	if x.NNZ() == 0 {
		return fmt.Errorf("core: cannot decompose an empty tensor")
	}
	if o.MaxIters < 0 {
		return fmt.Errorf("core: MaxIters %d is negative", o.MaxIters)
	}
	if o.Threads < 0 {
		return fmt.Errorf("core: Threads %d is negative", o.Threads)
	}
	if o.TTMc != TTMcFlat && o.TTMc != TTMcDTree {
		return fmt.Errorf("core: unknown TTMc strategy %d", o.TTMc)
	}
	if o.Init != InitRandom && o.Init != InitHOSVD {
		return fmt.Errorf("core: unknown Init method %d", o.Init)
	}
	if o.Sketch != SketchGauss && o.Sketch != SketchCount {
		return fmt.Errorf("core: unknown Sketch kind %d", o.Sketch)
	}
	if o.Eps != 0 && !(o.Eps > 0 && o.Eps <= 1) {
		return fmt.Errorf("core: Eps %v outside (0, 1]", o.Eps)
	}
	if o.Eps == 0 {
		// Fixed-rank runs use Lanczos; the sketch settings would select
		// nothing.
		switch {
		case o.Sketch != SketchGauss:
			return fmt.Errorf("core: a non-default Sketch needs Eps > 0 (fixed-rank TRSVD runs Lanczos)")
		case o.Oversample != 0:
			return fmt.Errorf("core: Oversample %d needs Eps > 0 (fixed-rank TRSVD runs Lanczos)", o.Oversample)
		case o.PowerIters != 0:
			return fmt.Errorf("core: PowerIters %d needs Eps > 0 (fixed-rank TRSVD runs Lanczos)", o.PowerIters)
		}
	}
	if o.Eps > 0 {
		// Adaptive rank: Ranks is optional and only caps the selection,
		// so the cross-mode product constraint does not apply.
		if o.Ranks != nil && len(o.Ranks) != x.Order() {
			return fmt.Errorf("core: %d rank caps for an order-%d tensor", len(o.Ranks), x.Order())
		}
		for n, r := range o.Ranks {
			if r < 1 {
				return fmt.Errorf("core: rank cap %d in mode %d must be positive", r, n)
			}
			if r > x.Dims[n] {
				return fmt.Errorf("core: rank cap %d exceeds mode-%d size %d", r, n, x.Dims[n])
			}
		}
	} else {
		if len(o.Ranks) != x.Order() {
			return fmt.Errorf("core: %d ranks for an order-%d tensor", len(o.Ranks), x.Order())
		}
		for n, r := range o.Ranks {
			if r < 1 {
				return fmt.Errorf("core: rank %d in mode %d must be positive", r, n)
			}
			if r > x.Dims[n] {
				return fmt.Errorf("core: rank %d exceeds mode-%d size %d", r, n, x.Dims[n])
			}
			other := 1
			for t, rt := range o.Ranks {
				if t != n {
					other *= rt
				}
			}
			if r > other {
				return fmt.Errorf("core: rank %d in mode %d exceeds the product of the other ranks (%d); Y_(%d) cannot have that many singular vectors", r, n, other, n)
			}
		}
	}
	if o.Initial != nil {
		if len(o.Initial) != x.Order() {
			return fmt.Errorf("core: %d initial factors for an order-%d tensor", len(o.Initial), x.Order())
		}
		for n, u := range o.Initial {
			if u.Rows != x.Dims[n] {
				return fmt.Errorf("core: initial factor %d has %d rows, want %d", n, u.Rows, x.Dims[n])
			}
			// Under Eps the initial column counts are just the starting
			// ranks; fixed-rank runs require an exact shape match.
			if o.Eps > 0 {
				if u.Cols < 1 || u.Cols > x.Dims[n] {
					return fmt.Errorf("core: initial factor %d has %d columns for mode size %d", n, u.Cols, x.Dims[n])
				}
			} else if u.Cols != o.Ranks[n] {
				return fmt.Errorf("core: initial factor %d has shape %dx%d, want %dx%d",
					n, u.Rows, u.Cols, x.Dims[n], o.Ranks[n])
			}
		}
	}
	return nil
}
