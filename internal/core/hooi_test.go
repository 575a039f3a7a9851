package core

import (
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// lowRankTensor builds a sparse tensor whose *dense equivalent* is
// exactly a rank-(r,..,r) Tucker model: the factors are supported on a
// small subset of `support` rows per mode, so the model is nonzero only
// on the support sub-cube and every nonzero is stored explicitly. HOOI
// with matching ranks can then fit it to machine precision.
func lowRankTensor(rng *rand.Rand, dims []int, r, support int) *tensor.COO {
	order := len(dims)
	ranks := make([]int, order)
	for i := range ranks {
		ranks[i] = r
	}
	g := tensor.NewDense(ranks)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	us := make([]*dense.Matrix, order)
	supports := make([][]int, order)
	for n := range us {
		us[n] = dense.NewMatrix(dims[n], r)
		perm := rng.Perm(dims[n])[:support]
		supports[n] = perm
		for _, i := range perm {
			for j := 0; j < r; j++ {
				us[n].Set(i, j, rng.NormFloat64())
			}
		}
	}
	res := &Result{Core: g, Factors: us}
	x := tensor.NewCOO(dims, 0)
	coord := make([]int, order)
	var rec func(n int)
	rec = func(n int) {
		if n == order {
			if v := res.ReconstructAt(coord); v != 0 {
				x.Append(coord, v)
			}
			return
		}
		for _, i := range supports[n] {
			coord[n] = i
			rec(n + 1)
		}
	}
	rec(0)
	return x.SortDedup()
}

func TestDecomposeFullRankIsExact(t *testing.T) {
	// With ranks equal to the dimensions the Tucker model can represent
	// any tensor exactly: fit must reach ~1.
	rng := rand.New(rand.NewSource(51))
	dims := []int{6, 5, 4}
	x := tensor.NewCOO(dims, 0)
	coord := make([]int, 3)
	for i := 0; i < 40; i++ {
		for m := range coord {
			coord[m] = rng.Intn(dims[m])
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	res, err := Decompose(x, Options{Ranks: []int{6, 5, 4}, MaxIters: 8, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 1-1e-6 {
		t.Fatalf("full-rank fit = %v, want ~1", res.Fit)
	}
	if got := res.Residual(x); got > 1e-5 {
		t.Fatalf("full-rank residual = %v", got)
	}
}

func TestDecomposeRecoversLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x := lowRankTensor(rng, []int{20, 18, 16}, 3, 8)
	res, err := Decompose(x, Options{Ranks: []int{3, 3, 3}, MaxIters: 30, Tol: 1e-12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The dense equivalent is exactly rank (3,3,3), so the fit must be
	// essentially perfect.
	if res.Fit < 1-1e-6 {
		t.Fatalf("low-rank fit = %v, want ~1", res.Fit)
	}
}

func TestFitMonotoneNondecreasing(t *testing.T) {
	// ALS sweeps never decrease the fit (up to tiny numerical noise).
	x := gen.Random(gen.Config{Dims: []int{25, 20, 15}, NNZ: 800, Skew: 0.5, Seed: 3})
	res, err := Decompose(x, Options{Ranks: []int{4, 4, 4}, MaxIters: 12, Tol: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.FitHistory); i++ {
		if res.FitHistory[i] < res.FitHistory[i-1]-1e-8 {
			t.Fatalf("fit decreased at sweep %d: %v -> %v", i, res.FitHistory[i-1], res.FitHistory[i])
		}
	}
}

func TestDecomposeDeterministicAcrossThreads(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1000, Skew: 0.5, Seed: 4})
	opts := Options{Ranks: []int{3, 4, 2}, MaxIters: 4, Tol: -1, Seed: 5}
	o1 := opts
	o1.Threads = 1
	o4 := opts
	o4.Threads = 4
	r1, err := Decompose(x, o1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Decompose(x, o4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Fit-r4.Fit) > 1e-12 {
		t.Fatalf("fit differs across threads: %v vs %v", r1.Fit, r4.Fit)
	}
	for n := range r1.Factors {
		if !r1.Factors[n].Equal(r4.Factors[n], 1e-10) {
			t.Fatalf("factor %d differs across thread counts", n)
		}
	}
}

func TestFactorsOrthonormal(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{40, 30, 20, 10}, NNZ: 1500, Skew: 0.6, Seed: 6})
	res, err := Decompose(x, Options{Ranks: []int{3, 3, 3, 3}, MaxIters: 3, Tol: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for n, u := range res.Factors {
		g := dense.MatMulTA(u, u, 1)
		if !g.Equal(dense.Identity(u.Cols), 1e-8) {
			t.Fatalf("factor %d columns not orthonormal", n)
		}
	}
	if res.Core.Order() != 4 {
		t.Fatal("core order wrong")
	}
}

func TestCoreNormNeverExceedsTensorNorm(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{15, 15, 15}, NNZ: 500, Skew: 0, Seed: 8})
	res, err := Decompose(x, Options{Ranks: []int{2, 2, 2}, MaxIters: 5, Tol: -1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core.Norm() > x.Norm(1)+1e-9 {
		t.Fatalf("||G|| = %v exceeds ||X|| = %v", res.Core.Norm(), x.Norm(1))
	}
	if res.Fit < 0 || res.Fit > 1 {
		t.Fatalf("fit out of range: %v", res.Fit)
	}
}

func TestInitMethods(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 900, Skew: 0.5, Seed: 12})
	for _, init := range []InitMethod{InitRandom, InitHOSVD} {
		res, err := Decompose(x, Options{Ranks: []int{3, 3, 3}, MaxIters: 5, Tol: -1, Seed: 13, Init: init})
		if err != nil {
			t.Fatalf("init %d: %v", init, err)
		}
		if res.Fit <= 0 {
			t.Fatalf("init %d: nonpositive fit %v", init, res.Fit)
		}
	}
}

func TestHOSVDInitSpeedsConvergence(t *testing.T) {
	// On a tensor with genuine low-rank structure the HOSVD-style init
	// should start with at least as good a first-sweep fit as random.
	rng := rand.New(rand.NewSource(55))
	x := lowRankTensor(rng, []int{30, 30, 30}, 2, 10)
	rnd, err := Decompose(x, Options{Ranks: []int{2, 2, 2}, MaxIters: 1, Tol: -1, Seed: 14, Init: InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	hos, err := Decompose(x, Options{Ranks: []int{2, 2, 2}, MaxIters: 1, Tol: -1, Seed: 14, Init: InitHOSVD})
	if err != nil {
		t.Fatal(err)
	}
	if hos.FitHistory[0] < rnd.FitHistory[0]-0.05 {
		t.Fatalf("HOSVD first-sweep fit %v much worse than random %v", hos.FitHistory[0], rnd.FitHistory[0])
	}
}

func TestValidateErrors(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{5, 5, 5}, NNZ: 20, Seed: 15})
	cases := []Options{
		{Ranks: []int{2, 2}},                  // wrong rank count
		{Ranks: []int{0, 2, 2}},               // nonpositive rank
		{Ranks: []int{6, 2, 2}},               // rank exceeds dim
		{Ranks: []int{5, 1, 1}},               // rank exceeds product of others
		{Ranks: []int{2, 2, 2}, MaxIters: -1}, // negative sweep cap
		{Ranks: []int{2, 2, 2}, Threads: -1},  // negative thread count
		// Sketch settings select nothing at fixed rank (Lanczos).
		{Ranks: []int{2, 2, 2}, Sketch: SketchCount},
		{Ranks: []int{2, 2, 2}, Oversample: 4},
		{Ranks: []int{2, 2, 2}, PowerIters: 2},
		{Ranks: []int{2, 2, 2}, PowerIters: -1},
		// Out-of-range enum values name no path.
		{Ranks: []int{2, 2, 2}, TTMc: TTMcStrategy(7)},
		{Ranks: []int{2, 2, 2}, Init: InitMethod(9)},
		{Eps: 0.5, Sketch: SketchKind(9)},
	}
	for i, o := range cases {
		if _, err := Decompose(x, o); err == nil {
			t.Errorf("case %d accepted invalid options", i)
		}
	}
	empty := tensor.NewCOO([]int{5, 5}, 0)
	if _, err := Decompose(empty, Options{Ranks: []int{2, 2}}); err == nil {
		t.Error("empty tensor accepted")
	}
}

func TestTolStopsEarly(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{20, 20, 20}, NNZ: 400, Skew: 0, Seed: 16})
	res, err := Decompose(x, Options{Ranks: []int{2, 2, 2}, MaxIters: 50, Tol: 1e-3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 50 {
		t.Fatalf("tolerance did not stop iteration: %d sweeps", res.Iters)
	}
	if res.Timings.TTMc <= 0 || res.Timings.TRSVD <= 0 {
		t.Fatal("phase timings not recorded")
	}
}
