package main

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// Tolerances of the per-op checks. The recomputed core sums the
// nonzeros in another order than the solver, so it agrees to rounding,
// not bitwise.
const (
	orthoTol = 1e-8 // max |UᵀU − I| entry
	coreTol  = 1e-8 // max |G′ − G| relative to ‖G′‖
	fitTol   = 1e-9 // |fit(‖X‖, ‖G′‖) − Result.Fit|
	distTol  = 1e-6 // |distributed fit − shared-memory fit|
)

// solution is the part of a shared-memory or distributed result the
// checks read.
type solution struct {
	factors []*dense.Matrix
	core    *tensor.Dense
	fit     float64
}

// checkSolution recomputes the core over the nonzeros of x,
// G′ = Σ x·(u₁⊗…⊗u_N), compares it with the solver's core, checks that
// every factor is orthonormal on its nonempty rows, and recomputes the
// fit from ‖X‖ and ‖G′‖.
func checkSolution(x *tensor.COO, s solution, threads int) error {
	for n, u := range s.factors {
		if err := checkOrthonormal(u); err != nil {
			return fmt.Errorf("factor %d: %w", n, err)
		}
	}
	g := recomputeCore(x, s.factors, threads)
	if !slices.Equal(g.Dims, s.core.Dims) {
		return fmt.Errorf("core shape %v, want %v", s.core.Dims, g.Dims)
	}
	normG := g.Norm()
	var worst float64
	for i, v := range g.Data {
		worst = math.Max(worst, math.Abs(v-s.core.Data[i]))
	}
	if worst > coreTol*normG {
		return fmt.Errorf("core differs from Σ x·(u₁⊗…⊗u_N) by %.3g (‖G′‖ = %.6g)", worst, normG)
	}
	normX := x.Norm(1)
	fit := 1 - math.Sqrt(math.Max(0, normX*normX-normG*normG))/normX
	if math.Abs(fit-s.fit) > fitTol {
		return fmt.Errorf("fit %.12f, recomputed from ‖X‖ and ‖G′‖ %.12f", s.fit, fit)
	}
	return nil
}

// checkOrthonormal checks UᵀU = I.
func checkOrthonormal(u *dense.Matrix) error {
	gram := dense.NewMatrix(u.Cols, u.Cols)
	for i := 0; i < u.Rows; i++ {
		row := u.Row(i)
		for a, va := range row {
			if va == 0 {
				continue
			}
			g := gram.Row(a)
			for b, vb := range row {
				g[b] += va * vb
			}
		}
	}
	for a := 0; a < u.Cols; a++ {
		for b := 0; b < u.Cols; b++ {
			want := 0.0
			if a == b {
				want = 1
			}
			if d := math.Abs(gram.At(a, b) - want); d > orthoTol {
				return fmt.Errorf("UᵀU(%d,%d) off the identity by %.3g", a, b, d)
			}
		}
	}
	return nil
}

// recomputeCore forms G′ = Σ_nz x·(u₁(i₁,:)⊗…⊗u_N(i_N,:)) straight from
// the nonzeros, in the core's row-major layout. It first sums the
// Kronecker rows of every mode but the shortest one, m, per index of m,
// T[i] = Σ_{i_m = i} x·⊗_{n≠m} u_n(i_n,:), then forms
// G′ = Σ_i T[i] ⊗ u_m(i,:) with u_m(i,:) placed at position m. Workers
// accumulate private T over contiguous nonzero ranges that are summed
// in worker order, so the result does not depend on scheduling.
func recomputeCore(x *tensor.COO, u []*dense.Matrix, threads int) *tensor.Dense {
	ranks := make([]int, len(u))
	for n, f := range u {
		ranks[n] = f.Cols
	}
	g := tensor.NewDense(ranks)
	m := 0
	for n, d := range x.Dims {
		if d < x.Dims[m] {
			m = n
		}
	}
	// base[q] is the core offset of the q-th row-major combination of
	// the ranks of the modes other than m.
	base := []int{0}
	for n := range u {
		if n == m {
			continue
		}
		next := make([]int, 0, len(base)*ranks[n])
		for _, b := range base {
			for r := 0; r < ranks[n]; r++ {
				next = append(next, b+r*g.Stride[n])
			}
		}
		base = next
	}
	width := len(base)

	parts := make([][]float64, max(threads, 1))
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := w*x.NNZ()/len(parts), (w+1)*x.NNZ()/len(parts)
		parts[w] = make([]float64, x.Dims[m]*width)
		wg.Add(1)
		go func(t []float64) {
			defer wg.Done()
			kron := make([]float64, width)
			for i := lo; i < hi; i++ {
				// kron grows to x·⊗_{n≠m} u_n(i_n,:) one mode at a time.
				kron[0] = x.Val[i]
				size := 1
				for n, f := range u {
					if n == m {
						continue
					}
					row := f.Row(int(x.Idx[n][i]))
					for p := size - 1; p >= 0; p-- {
						v := kron[p]
						for r := len(row) - 1; r >= 0; r-- {
							kron[p*len(row)+r] = v * row[r]
						}
					}
					size *= len(row)
				}
				dst := t[int(x.Idx[m][i])*width:]
				for p, v := range kron {
					dst[p] += v
				}
			}
		}(parts[w])
	}
	wg.Wait()
	for _, t := range parts[1:] {
		for i, v := range t {
			parts[0][i] += v
		}
	}
	for i := 0; i < x.Dims[m]; i++ {
		row := u[m].Row(i)
		t := parts[0][i*width : (i+1)*width]
		for q, v := range t {
			if v == 0 {
				continue
			}
			for r, ur := range row {
				g.Data[base[q]+r*g.Stride[m]] += v * ur
			}
		}
	}
	return g
}

// checkSameHistory requires a bitwise-identical fit trajectory.
func checkSameHistory(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("fit history has %d sweeps, the run's first op %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("sweep %d fit %.17g, the run's first op %.17g", i+1, got[i], want[i])
		}
	}
	return nil
}
