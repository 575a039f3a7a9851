package core

import (
	"fmt"
	"strings"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
)

// Schedule selects how the parallel kernels distribute their loop
// iterations across threads; it re-exports par.Schedule. All schedules
// are owner-computes and produce bitwise-identical results — they
// differ only in load balance and scheduling overhead.
type Schedule = par.Schedule

const (
	// ScheduleBalanced (the default) partitions rows/fibers into
	// per-worker chains of near-equal nonzero weight — prefix-sum
	// chain-on-chain, or LPT where single slices dominate — and steals
	// chunks for irregular tails. This is the paper's load-balance
	// discipline: uniform chunking leaves whichever thread owns the
	// heaviest slices running long after the rest go idle.
	ScheduleBalanced = par.ScheduleBalanced
	// ScheduleDynamic is chunked self-scheduling from a shared cursor.
	ScheduleDynamic = par.ScheduleDynamic
	// ScheduleStatic is uniform contiguous blocks, one per worker.
	ScheduleStatic = par.ScheduleStatic
)

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
	// rounding and remain deterministic for any thread count.
	TTMcDTree
)

// Format selects the sparse storage layout the decomposition runs on.
type Format int

const (
	// FormatCOO keeps the tensor in coordinate format: N index streams
	// of nnz int32 each, scanned per nonzero by the TTMc kernels. It is
	// the reference path.
	FormatCOO Format = iota
	// FormatCSF converts the tensor to compressed-sparse-fiber storage
	// (tensor.CSF) before the symbolic phase: per-root-mode fiber trees
	// with compressed index levels. The symbolic structure is built
	// from the fiber boundaries, and the flat TTMc strategy switches to
	// the fiber-walking kernels (ttm.CSFTTMc), which hoist per-fiber
	// work out of the per-nonzero loop. Index storage and TTMc
	// multiply-adds both drop on compressible tensors; results match
	// FormatCOO to rounding and stay deterministic for any thread
	// count.
	FormatCSF
	// FormatALTO converts the tensor to the adaptive linearized format
	// (tensor.ALTO): every coordinate packed into one bit-interleaved
	// key, all nonzeros in a single sorted stream with no per-mode
	// replication. The symbolic structure is recovered from the mode-bit
	// boundaries, and the flat TTMc strategy switches to the
	// sequential-stream kernels (ttm.ALTOTTMc) with blocked dense
	// accumulation for short modes and owner-computes emission for long
	// ones. Index storage is 8 bytes/nnz (16 for shapes above 64
	// interleaved bits) independent of how compressible the fibers are —
	// the format that wins on skewed tensors where CSF fibers stay
	// short. Results match FormatCOO to rounding and stay deterministic
	// for any thread count.
	FormatALTO
)

// formatNames spells the formats the way cmd/hooi's -format flag does,
// indexed by the Format value. It is the single source of truth the
// CLI usage strings, the parser, and String derive from.
var formatNames = [...]string{
	FormatCOO:  "coo",
	FormatCSF:  "csf",
	FormatALTO: "alto",
}

// FormatNames lists the -format flag spellings in Format value order.
func FormatNames() []string { return append([]string(nil), formatNames[:]...) }

// FormatUsage is the canonical -format flag description shared by the
// CLIs and the docs, derived from FormatNames.
func FormatUsage() string {
	return "sparse storage format: coo (coordinate streams) | csf (compressed sparse fibers) | alto (adaptive linearized offsets)"
}

// ParseFormat maps a -format flag spelling to its Format value.
func ParseFormat(s string) (Format, error) {
	for f, name := range formatNames {
		if s == name {
			return Format(f), nil
		}
	}
	return 0, fmt.Errorf("core: unknown storage format %q (formats: %s)", s, strings.Join(formatNames[:], " | "))
}

// String names the format the way cmd/hooi's -format flag spells it.
func (f Format) String() string {
	if int(f) < 0 || int(f) >= len(formatNames) {
		return fmt.Sprintf("Format(%d)", int(f))
	}
	return formatNames[f]
}

// SVDMethod selects the truncated SVD solver used for the TRSVD step.
type SVDMethod int

const (
	// SVDLanczos is Golub–Kahan–Lanczos bidiagonalization, the paper's
	// (SLEPc) method and the default.
	SVDLanczos SVDMethod = iota
	// SVDSubspace is randomized block subspace iteration (ablation).
	SVDSubspace
	// SVDGram forms the small column-side Gram matrix explicitly
	// (ablation; feasible because Y_(n) has only ∏_{t≠n} R_t columns).
	SVDGram
	// SVDRandomized is the sketched range-finder solver
	// (trsvd.Randomized): a deterministic Gaussian or CountSketch panel
	// through the operator, power iterations, CholeskyQR2 Gram
	// whitening, and a projected small SVD — a handful of BLAS3 passes
	// instead of Lanczos's GEMV chain, at equal fit on the benchmark
	// presets. Options.Eps switches it to adaptive rank selection.
	SVDRandomized
)

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
	// satisfies ‖X − X̂‖ ≲ eps·‖X‖. Implies SVDRandomized. Must lie in
	// (0, 1].
	Eps float64
	// Sketch selects the randomized solver's sketching operator
	// (SketchGauss by default; SVDRandomized and Eps runs only).
	Sketch SketchKind
	// Oversample adds extra sketch columns beyond the target rank in the
	// randomized solver (0 selects 8).
	Oversample int
	// PowerIters caps the randomized solver's power-iteration rounds
	// (0 selects 6, negative selects none); the solver stops below the
	// cap as soon as its Ritz energies settle.
	PowerIters int
	// MaxIters caps the number of ALS sweeps. 0 selects 50.
	MaxIters int
	// Tol stops the iteration when the fit improves by less than this
	// between sweeps. 0 selects 1e-5. Negative disables the test (run
	// exactly MaxIters sweeps), which the paper's benchmarks use.
	Tol float64
	// Threads bounds shared-memory parallelism; 0 uses GOMAXPROCS.
	Threads int
	// Schedule selects the parallel loop scheduling discipline
	// (ScheduleBalanced by default). Results are bitwise identical
	// under every schedule and thread count.
	Schedule Schedule
	// Init selects the factor initialization.
	Init InitMethod
	// SVD selects the TRSVD solver.
	SVD SVDMethod
	// TTMc selects the TTMc evaluation strategy (flat reference path or
	// memoized dimension tree).
	TTMc TTMcStrategy
	// Format selects the sparse storage layout (coordinate streams,
	// compressed sparse fibers, or adaptive linearized offsets).
	Format Format
	// CSFModeOrder overrides the CSF storage mode permutation
	// (ModeOrder[0] is the root level). nil selects shortest-mode-first.
	// Ignored for FormatCOO.
	CSFModeOrder []int
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
	if out.Eps > 0 {
		out.SVD = SVDRandomized
	}
	return out
}

// Validate checks the options against a tensor's shape.
func (o *Options) Validate(x *tensor.COO) error {
	if x.NNZ() == 0 {
		return fmt.Errorf("core: cannot decompose an empty tensor")
	}
	if o.Eps != 0 && !(o.Eps > 0 && o.Eps <= 1) {
		return fmt.Errorf("core: Eps %v outside (0, 1]", o.Eps)
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
	if int(o.Format) < 0 || int(o.Format) >= len(formatNames) {
		return fmt.Errorf("core: unknown storage format %d", int(o.Format))
	}
	if o.Format == FormatALTO {
		if b := tensor.ALTOTotalBits(x.Dims); b > 128 {
			return fmt.Errorf("core: shape %v needs %d interleaved bits; the ALTO split-key limit is 128", x.Dims, b)
		}
	}
	if o.Format == FormatCSF && o.CSFModeOrder != nil {
		if len(o.CSFModeOrder) != x.Order() {
			return fmt.Errorf("core: CSF mode order has %d modes for an order-%d tensor", len(o.CSFModeOrder), x.Order())
		}
		seen := make([]bool, x.Order())
		for _, m := range o.CSFModeOrder {
			if m < 0 || m >= x.Order() || seen[m] {
				return fmt.Errorf("core: CSF mode order %v is not a permutation", o.CSFModeOrder)
			}
			seen[m] = true
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
