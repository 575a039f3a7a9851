// Package cp implements the CANDECOMP/PARAFAC decomposition with
// alternating least squares (CP-ALS) for sparse tensors. The paper's
// parallelization framework comes from the authors' CP-ALS work (Kaya &
// Uçar SC'15, cited as [16] and the source of the hypergraph models of
// §III.B), and the released HyperTensor library computes both
// decompositions; this package completes that scope. The key kernel,
// the matricized-tensor-times-Khatri-Rao-product (MTTKRP), is the CP
// analogue of TTMc and runs on the same symbolic update lists with the
// same lock-free owner-computes row loop.
package cp

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// Options configure a CP-ALS decomposition.
type Options struct {
	// Rank is the number of rank-one components R.
	Rank int
	// MaxIters caps ALS sweeps (0 selects 50).
	MaxIters int
	// Tol stops when the fit improves by less than this (0 selects
	// 1e-5; negative disables).
	Tol float64
	// Threads bounds shared-memory parallelism (0 = GOMAXPROCS).
	Threads int
	// Seed makes the random initialization deterministic.
	Seed int64
}

// Result is a computed CP decomposition X ≈ Σ_r λ_r · a_r ∘ b_r ∘ ...
type Result struct {
	// Factors are the I_n x R factor matrices with unit-norm columns.
	Factors []*dense.Matrix
	// Lambda are the R component weights, descending.
	Lambda []float64
	// Fit is 1 - ||X - X̂||_F / ||X||_F.
	Fit float64
	// FitHistory records the fit after each sweep.
	FitHistory []float64
	// Iters is the number of completed sweeps.
	Iters int
}

// MTTKRP computes the matricized-tensor-times-Khatri-Rao product for
// mode n: out(i, :) = Σ_{x_{i_1..i_N}, i_n = i} x · ⊛_{t≠n} U_t(i_t, :)
// where ⊛ is the elementwise (Hadamard) product of the R-length factor
// rows. out must be pre-shaped sm.NumRows() x R; rows follow sm.Rows.
// Like TTMc, each output row is owned by one worker (no locks) and the
// accumulation order is fixed by the symbolic structure.
func MTTKRP(out *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int) {
	r := u[(sm.N+1)%x.Order()].Cols
	if out.Rows != sm.NumRows() || out.Cols != r {
		panic("cp: MTTKRP output shape mismatch")
	}
	order := x.Order()
	threads = par.DefaultThreads(threads)
	scratches := make([][]float64, threads)
	par.ForDynamicWorker(sm.NumRows(), threads, 0, func(w, lo, hi int) {
		buf := scratches[w]
		if buf == nil {
			buf = make([]float64, r)
			scratches[w] = buf
		}
		for row := lo; row < hi; row++ {
			orow := out.Row(row)
			for i := range orow {
				orow[i] = 0
			}
			for _, id := range sm.RowNZ(row) {
				v := x.Val[id]
				for j := range buf {
					buf[j] = v
				}
				for t := 0; t < order; t++ {
					if t == sm.N {
						continue
					}
					urow := u[t].Row(int(x.Idx[t][id]))
					for j := range buf {
						buf[j] *= urow[j]
					}
				}
				dense.Axpy(1, buf, orow)
			}
		}
	})
}

// Decompose runs CP-ALS (Kolda & Bader, Fig. 3.3) on a sparse tensor:
// per mode, U_n ← MTTKRP(X, n) · pinv(⊛_{t≠n} U_tᵀU_t), with column
// normalization into λ and the standard Frobenius fit test.
func Decompose(x *tensor.COO, opts Options) (*Result, error) {
	if err := validate(x, opts); err != nil {
		return nil, err
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 50
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-5
	}
	order := x.Order()
	r := opts.Rank
	normX := x.Norm(opts.Threads)
	sym := symbolic.Build(x, opts.Threads)

	// Random init with unit-norm columns.
	factors := make([]*dense.Matrix, order)
	for n := 0; n < order; n++ {
		m := dense.NewMatrix(x.Dims[n], r)
		for i := range m.Data {
			m.Data[i] = hashUniform(opts.Seed+int64(n), int64(i))
		}
		normalizeColumns(m, nil)
		factors[n] = m
	}
	grams := make([]*dense.Matrix, order)
	for n := range grams {
		grams[n] = dense.MatMulTA(factors[n], factors[n], opts.Threads)
	}

	res := &Result{Lambda: make([]float64, r)}
	mt := make([]*dense.Matrix, order)
	for n := 0; n < order; n++ {
		mt[n] = dense.NewMatrix(sym.Modes[n].NumRows(), r)
	}
	prevFit := math.Inf(-1)
	for iter := 0; iter < opts.MaxIters; iter++ {
		for n := 0; n < order; n++ {
			sm := &sym.Modes[n]
			MTTKRP(mt[n], x, sm, factors, opts.Threads)
			v := hadamardGrams(grams, n, r)
			pinv := pseudoInverse(v)
			// U_n rows for nonempty slices: M(i,:)·pinv; empty slices zero.
			factors[n].Zero()
			for row, gi := range sm.Rows {
				src := mt[n].Row(row)
				dst := factors[n].Row(int(gi))
				for a := 0; a < r; a++ {
					var s float64
					for b := 0; b < r; b++ {
						s += src[b] * pinv.At(b, a)
					}
					dst[a] = s
				}
			}
			normalizeColumns(factors[n], res.Lambda)
			grams[n] = dense.MatMulTA(factors[n], factors[n], opts.Threads)
		}

		fit := cpFit(x, sym, factors, res.Lambda, normX, mt[order-1])
		res.FitHistory = append(res.FitHistory, fit)
		res.Fit = fit
		res.Iters = iter + 1
		if opts.Tol > 0 && math.Abs(fit-prevFit) < opts.Tol {
			break
		}
		prevFit = fit
	}
	res.Factors = factors
	return res, nil
}

// cpFit evaluates 1 - ||X - X̂||/||X|| using the standard identities:
// ||X̂||² = λᵀ (⊛_n U_nᵀU_n) λ and <X, X̂> = Σ_i <M_N(i,:) ⊛ U_N(i,:), λ>
// with M_N the last-mode MTTKRP (already computed this sweep — note it
// used the *pre-update* U_N rows only through the other modes, so it is
// exact for the current factors).
func cpFit(x *tensor.COO, sym *symbolic.Structure, u []*dense.Matrix, lambda []float64, normX float64, mLast *dense.Matrix) float64 {
	order := len(u)
	r := len(lambda)
	last := order - 1
	sm := &sym.Modes[last]
	// Recompute MTTKRP for the last mode with the final factors (the
	// one from the sweep predates U_last's update, which does not enter
	// MTTKRP(last); reuse it directly).
	var inner float64
	for row, gi := range sm.Rows {
		mrow := mLast.Row(row)
		urow := u[last].Row(int(gi))
		for j := 0; j < r; j++ {
			inner += lambda[j] * mrow[j] * urow[j]
		}
	}
	// ||X̂||².
	had := dense.NewMatrix(r, r)
	for a := 0; a < r; a++ {
		for b := 0; b < r; b++ {
			had.Set(a, b, 1)
		}
	}
	for n := 0; n < order; n++ {
		g := dense.MatMulTA(u[n], u[n], 1)
		for i := range had.Data {
			had.Data[i] *= g.Data[i]
		}
	}
	var model2 float64
	for a := 0; a < r; a++ {
		for b := 0; b < r; b++ {
			model2 += lambda[a] * lambda[b] * had.At(a, b)
		}
	}
	sq := normX*normX - 2*inner + model2
	if sq < 0 {
		sq = 0
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(sq)/normX
}

// hadamardGrams returns ⊛_{t≠n} U_tᵀU_t.
func hadamardGrams(grams []*dense.Matrix, n, r int) *dense.Matrix {
	v := dense.NewMatrix(r, r)
	for i := range v.Data {
		v.Data[i] = 1
	}
	for t, g := range grams {
		if t == n {
			continue
		}
		for i := range v.Data {
			v.Data[i] *= g.Data[i]
		}
	}
	return v
}

// pseudoInverse computes the Moore-Penrose inverse of a small symmetric
// PSD matrix via its SVD, thresholding tiny singular values.
func pseudoInverse(v *dense.Matrix) *dense.Matrix {
	u, s, vt := dense.SVD(v)
	tol := 1e-12 * math.Max(s[0], 1)
	out := dense.NewMatrix(v.Cols, v.Rows)
	for k := 0; k < len(s); k++ {
		if s[k] <= tol {
			continue
		}
		inv := 1 / s[k]
		for i := 0; i < out.Rows; i++ {
			vi := vt.At(i, k)
			if vi == 0 {
				continue
			}
			row := out.Row(i)
			for j := 0; j < out.Cols; j++ {
				row[j] += vi * inv * u.At(j, k)
			}
		}
	}
	return out
}

// normalizeColumns scales each column of m to unit norm, storing the
// norms in lambda when non-nil. Zero columns get lambda 0 and are left
// as zeros (dead components).
func normalizeColumns(m *dense.Matrix, lambda []float64) {
	for j := 0; j < m.Cols; j++ {
		var nrm float64
		for i := 0; i < m.Rows; i++ {
			nrm += m.At(i, j) * m.At(i, j)
		}
		nrm = math.Sqrt(nrm)
		if lambda != nil {
			lambda[j] = nrm
		}
		if nrm > 0 {
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, m.At(i, j)/nrm)
			}
		}
	}
}

// ReconstructAt evaluates the CP model at one coordinate.
func (r *Result) ReconstructAt(coord []int) float64 {
	var s float64
	for j := range r.Lambda {
		v := r.Lambda[j]
		for n, u := range r.Factors {
			v *= u.At(coord[n], j)
		}
		s += v
	}
	return s
}

func validate(x *tensor.COO, opts Options) error {
	if x.NNZ() == 0 {
		return fmt.Errorf("cp: cannot decompose an empty tensor")
	}
	if opts.Rank < 1 {
		return fmt.Errorf("cp: rank %d must be positive", opts.Rank)
	}
	return nil
}

// hashUniform maps (seed, i) to a deterministic value in (-1, 1).
func hashUniform(seed, i int64) float64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return 2*float64(z>>11)/float64(1<<53) - 1
}
