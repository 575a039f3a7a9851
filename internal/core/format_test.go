package core

import (
	"math"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// TestFormatEquivalence checks the contract of the storage layer: on
// the 3- and 4-mode benchmark presets the solver runs on the caller's
// COO as is, so the index is exactly N x nnz x 4 bytes, no conversion
// time is charged, and the flat and dimension-tree strategies reproduce
// each other's fit to 1e-8 over that one storage.
func TestFormatEquivalence(t *testing.T) {
	for _, name := range []string{"netflix", "flickr"} {
		cfg, err := gen.Preset(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		x := gen.Random(cfg)
		ranks := gen.PaperRanks(x.Order())
		for n := range ranks {
			if ranks[n] > x.Dims[n] {
				ranks[n] = x.Dims[n]
			}
		}
		var fits []float64
		for _, strategy := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
			opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 7, TTMc: strategy}
			r, err := Decompose(x, opts)
			if err != nil {
				t.Fatalf("%s strategy=%d: %v", name, strategy, err)
			}
			if want := int64(x.Order()) * int64(x.NNZ()) * 4; r.IndexBytes != want {
				t.Fatalf("%s strategy=%d: index bytes %d, want %d", name, strategy, r.IndexBytes, want)
			}
			if r.Timings.Convert != 0 {
				t.Fatalf("%s strategy=%d: convert phase charged %v", name, strategy, r.Timings.Convert)
			}
			fits = append(fits, r.Fit)
		}
		if d := math.Abs(fits[0] - fits[1]); d > 1e-8 {
			t.Fatalf("%s: fit diverges by %g (flat %v, dtree %v)", name, d, fits[0], fits[1])
		}
	}
}

// TestFormatOrder1 covers the order-1 corner the dimension tree does
// not model: the dtree strategy falls back to the flat kernel and must
// match it bitwise.
func TestFormatOrder1(t *testing.T) {
	x := tensor.NewCOO([]int{6}, 0)
	x.Append([]int{4}, 2)
	x.Append([]int{1}, 3)
	x.Append([]int{0}, -1)
	opts := Options{Ranks: []int{1}, MaxIters: 2, Tol: -1, Seed: 1}
	flat, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.TTMc = TTMcDTree
	tree, err := Decompose(x, opts)
	if err != nil {
		t.Fatalf("order-1 dtree decompose: %v", err)
	}
	if flat.Fit != tree.Fit {
		t.Fatalf("order-1 strategies diverge: flat %v, dtree %v", flat.Fit, tree.Fit)
	}
}
