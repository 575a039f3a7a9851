package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// epsPreset is the adaptive-rank fixture the randomized-solver tests
// share: the netflix preset at scale 0.02 with the paper ranks as caps
// and an Eps tight enough that every mode keeps more than one
// direction.
func epsPreset(t *testing.T) (*tensor.COO, Options) {
	t.Helper()
	x, caps := presetTensor(t, "netflix", 0.02)
	return x, Options{Eps: 0.003, Ranks: caps, MaxIters: 5, Tol: -1, Seed: 11}
}

// The randomized solver of an Eps run must land on the same ALS fixed
// point as Lanczos: a fixed-rank Lanczos run at the ranks Eps chose
// reaches the same fit to well under the benchmark noise floor.
func TestRandomizedFitMatchesLanczos(t *testing.T) {
	x, opts := epsPreset(t)
	opts.MaxIters, opts.Tol = 30, 1e-10
	re, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for n, r := range re.ChosenRanks {
		if r < 2 {
			t.Fatalf("mode %d chose rank %d; the fixture must keep ranks above 1: %v", n, r, re.ChosenRanks)
		}
	}
	rl, err := Decompose(x, Options{Ranks: re.ChosenRanks, MaxIters: 30, Tol: 1e-10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(rl.Fit - re.Fit); d > 1e-5 {
		t.Fatalf("eps (randomized) fit %v vs lanczos %v at ranks %v (|d|=%g)", re.Fit, rl.Fit, re.ChosenRanks, d)
	}
}

// The randomized fit trajectory and the chosen ranks must be bitwise
// identical for every thread count: the sketch is counter-based, every
// panel reduction runs on a fixed block grid, and the solver's adaptive
// iteration counts and rank decisions are made on small b x b matrices.
func TestRandomizedFitBitwiseAcrossThreadsAndSchedules(t *testing.T) {
	x, base := epsPreset(t)
	base.MaxIters = 4
	var ref *Result
	for _, threads := range []int{1, 2, 4, 8} {
		opts := base
		opts.Threads = threads
		res, err := Decompose(x, opts)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if ref == nil {
			for n, r := range res.ChosenRanks {
				if r < 2 {
					t.Fatalf("mode %d chose rank %d; the fixture must keep ranks above 1", n, r)
				}
			}
			ref = res
			continue
		}
		if !slices.Equal(res.ChosenRanks, ref.ChosenRanks) {
			t.Fatalf("threads=%d: chose ranks %v, want %v", threads, res.ChosenRanks, ref.ChosenRanks)
		}
		if len(res.FitHistory) != len(ref.FitHistory) {
			t.Fatalf("threads=%d: %d sweeps vs %d", threads, len(res.FitHistory), len(ref.FitHistory))
		}
		for i := range ref.FitHistory {
			if res.FitHistory[i] != ref.FitHistory[i] {
				t.Fatalf("threads=%d: sweep %d fit %v != %v (not bitwise invariant)",
					threads, i, res.FitHistory[i], ref.FitHistory[i])
			}
		}
	}
}

// On an exactly rank-(3,3,3) tensor the epsilon-truncation rule must
// find the true ranks: the tail energy beyond rank 3 is zero, so any
// eps keeps exactly the three genuine directions per mode.
func TestEpsRecoversExactRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	x := lowRankTensor(rng, []int{20, 18, 16}, 3, 8)
	res, err := Decompose(x, Options{Eps: 0.05, MaxIters: 20, Tol: 1e-10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChosenRanks) != 3 {
		t.Fatalf("ChosenRanks = %v, want 3 modes", res.ChosenRanks)
	}
	for n, r := range res.ChosenRanks {
		if r != 3 {
			t.Fatalf("mode %d chose rank %d on an exactly rank-3 tensor: %v", n, r, res.ChosenRanks)
		}
	}
	if res.Fit < 1-0.05 {
		t.Fatalf("eps = 0.05 run ended with fit %v", res.Fit)
	}
}

// Tightening eps never shrinks the chosen ranks, the ranks stay within
// the mode sizes (and any caps), and the residual respects the bound
// the truncation rule targets.
func TestEpsRankMonotoneInEps(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1200, Skew: 0.5, Seed: 21})
	var prev []int
	for _, eps := range []float64{0.9, 0.7, 0.5} {
		res, err := Decompose(x, Options{Eps: eps, MaxIters: 5, Tol: -1, Seed: 13})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if len(res.ChosenRanks) != 3 {
			t.Fatalf("eps=%v: ChosenRanks = %v", eps, res.ChosenRanks)
		}
		for n, r := range res.ChosenRanks {
			if r < 1 || r > x.Dims[n] {
				t.Fatalf("eps=%v: mode-%d rank %d outside [1, %d]", eps, n, r, x.Dims[n])
			}
			if res.Factors[n].Cols != r {
				t.Fatalf("eps=%v: factor %d has %d columns, ChosenRanks says %d", eps, n, res.Factors[n].Cols, r)
			}
		}
		if prev != nil {
			for n := range prev {
				if res.ChosenRanks[n] < prev[n] {
					t.Fatalf("mode-%d rank shrank from %d to %d as eps tightened: %v -> %v",
						n, prev[n], res.ChosenRanks[n], prev, res.ChosenRanks)
				}
			}
		}
		prev = res.ChosenRanks
	}
}

// Rank caps bound the adaptive selection.
func TestEpsRespectsRankCaps(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{30, 25, 20}, NNZ: 1200, Skew: 0.5, Seed: 21})
	caps := []int{4, 3, 5}
	res, err := Decompose(x, Options{Eps: 0.3, Ranks: caps, MaxIters: 4, Tol: -1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for n, r := range res.ChosenRanks {
		if r > caps[n] {
			t.Fatalf("mode-%d rank %d exceeds cap %d", n, r, caps[n])
		}
	}
}

func TestEpsValidation(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{5, 5, 5}, NNZ: 20, Seed: 15})
	for _, eps := range []float64{-0.1, 1.5} {
		if _, err := Decompose(x, Options{Eps: eps}); err == nil {
			t.Errorf("Eps = %v accepted", eps)
		}
	}
	// Under Eps, Ranks is an optional cap: a nil Ranks must pass.
	if _, err := Decompose(x, Options{Eps: 0.5, MaxIters: 2, Tol: -1}); err != nil {
		t.Errorf("Eps run with nil Ranks rejected: %v", err)
	}
	// The sketch settings Validate rejects at fixed rank configure the
	// Eps solver.
	sk := Options{Eps: 0.5, MaxIters: 2, Tol: -1, Sketch: SketchCount, Oversample: 4, PowerIters: 2}
	if _, err := Decompose(x, sk); err != nil {
		t.Errorf("Eps run with sketch settings rejected: %v", err)
	}
}

// The warm Update path of an Eps run (streaming single-pass sketches)
// must re-converge to the same ranks and fit as a cold Eps solve of the
// merged tensor.
func TestEngineUpdateRandomizedSinglePass(t *testing.T) {
	x, opts := epsPreset(t)
	opts.MaxIters, opts.Tol, opts.Seed = 80, 1e-10, 7
	delta := gen.Delta(x, 0.005, 0.005, 99)
	merged := x.Clone()
	if _, err := merged.Merge(delta); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ru, err := e.Update(delta)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Decompose(merged, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ru.ChosenRanks, rc.ChosenRanks) {
		t.Fatalf("incremental run chose ranks %v, cold run %v", ru.ChosenRanks, rc.ChosenRanks)
	}
	for n, r := range rc.ChosenRanks {
		if r < 2 {
			t.Fatalf("mode %d chose rank %d; the fixture must keep ranks above 1", n, r)
		}
	}
	// The warm path streams sketches while the cold path recomputes
	// them, so the two fits agree only approximately; 1e-6 leaves room
	// for ulp-level input perturbations without masking real drift.
	if d := math.Abs(ru.Fit - rc.Fit); d > 1e-6 {
		t.Fatalf("single-pass incremental fit %v vs cold randomized %v (|d|=%g)", ru.Fit, rc.Fit, d)
	}
	if ru.UpdateSweeps <= 0 {
		t.Fatal("update sweep accounting missing")
	}
}
