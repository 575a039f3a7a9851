package trsvd

import (
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
)

// A reused workspace must not change solver results: run twice with the
// same warm workspace and compare bitwise against a fresh-workspace
// run, alternating between two different operators so stale buffer
// contents would be caught.
func TestWorkspaceReuseBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := dense.RandomNormal(120, 30, rng)
	b := dense.RandomNormal(80, 22, rng)
	ws := NewWorkspace()
	solvers := []struct {
		name string
		run  func(m *dense.Matrix, opts Options) (*Result, error)
	}{
		{"lanczos", func(m *dense.Matrix, opts Options) (*Result, error) {
			return Lanczos(&DenseOperator{A: m, Threads: 1}, 5, opts)
		}},
		{"randomized", func(m *dense.Matrix, opts Options) (*Result, error) {
			return Randomized(&DenseOperator{A: m, Threads: 1}, 5, opts)
		}},
	}
	for _, s := range solvers {
		for _, m := range []*dense.Matrix{a, b, a} { // alternate shapes
			fresh, err := s.run(m, Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s fresh: %v", s.name, err)
			}
			warm, err := s.run(m, Options{Seed: 3, Work: ws})
			if err != nil {
				t.Fatalf("%s warm: %v", s.name, err)
			}
			if !matEqualBits(fresh.U, warm.U) {
				t.Fatalf("%s: warm-workspace U differs from fresh", s.name)
			}
			for i := range fresh.Sigma {
				if fresh.Sigma[i] != warm.Sigma[i] {
					t.Fatalf("%s: sigma[%d] %v != %v", s.name, i, fresh.Sigma[i], warm.Sigma[i])
				}
			}
		}
	}
}

func matEqualBits(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// Randomized completes rank-deficient bases with the caller's seed: the
// same seed must reproduce the basis bit for bit, a different seed must
// complete the null directions differently, and the healthy leading
// directions must not depend on the seed at all.
func TestRandomizedSeedReproducibleCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Rank-2 matrix, ask for 4 vectors: two columns need completion.
	u := dense.RandomNormal(40, 2, rng)
	v := dense.RandomNormal(6, 2, rng)
	a := dense.MatMulTB(u, v, 1)
	solve := func(seed int64) *Result {
		t.Helper()
		r, err := Randomized(&DenseOperator{A: a, Threads: 1}, 4, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2, r3 := solve(5), solve(5), solve(6)
	if !matEqualBits(r1.U, r2.U) {
		t.Fatal("same seed produced different completed bases")
	}
	same := true
	for i := 0; i < r1.U.Rows; i++ {
		for j := 2; j < 4; j++ { // completed columns
			if r1.U.At(i, j) != r3.U.At(i, j) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds completed the null columns identically")
	}
	// The genuine singular directions are seed-independent.
	for j := 0; j < 2; j++ {
		var dot float64
		for i := 0; i < r1.U.Rows; i++ {
			dot += r1.U.At(i, j) * r3.U.At(i, j)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-8 {
			t.Fatalf("leading direction %d depends on the completion seed", j)
		}
	}
	// Orthonormality of the completed basis.
	g := dense.MatMulTA(r1.U, r1.U, 1)
	if !g.Equal(dense.Identity(4), 1e-8) {
		t.Fatal("completed basis not orthonormal")
	}
}

// With a warm workspace and one thread (parallel regions run inline),
// a Lanczos solve performs only a handful of allocations: the returned
// Result and U, and nothing per iteration.
func TestLanczosSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := dense.RandomNormal(300, 40, rng)
	op := &DenseOperator{A: a, Threads: 1}
	ws := NewWorkspace()
	if _, err := Lanczos(op, 8, Options{Seed: 1, Work: ws}); err != nil {
		t.Fatal(err) // warm the workspace
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Lanczos(op, 8, Options{Seed: 1, Work: ws}); err != nil {
			t.Fatal(err)
		}
	})
	// Result + U + Sigma + small slack; the seed implementation sat in
	// the hundreds per call.
	if allocs > 24 {
		t.Fatalf("warm Lanczos performs %v allocations per call; want near-zero", allocs)
	}
}
