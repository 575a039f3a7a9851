package core

import (
	"math/rand"
	"testing"
)

// The HOOI fit trajectory must be bitwise identical for every thread
// count, on both TTMc strategies. This is the determinism acceptance
// test of the parallel runtime: the balanced row chains and their
// stealing move row ownership between workers but never an
// accumulation order, and every reduction runs on a block grid that
// depends only on the problem size.
func TestFitBitwiseInvariantAcrossThreadsAndSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := lowRankTensor(rng, []int{24, 18, 15, 9}, 2, 5)
	for _, strategy := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
		var ref *Result
		for _, threads := range []int{1, 2, 4, 8} {
			res, err := Decompose(x, Options{
				Ranks:    []int{2, 2, 2, 2},
				MaxIters: 4,
				Tol:      -1,
				Threads:  threads,
				TTMc:     strategy,
				Seed:     5,
			})
			if err != nil {
				t.Fatalf("strategy=%v threads=%d: %v", strategy, threads, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if len(res.FitHistory) != len(ref.FitHistory) {
				t.Fatalf("strategy=%v threads=%d: %d sweeps vs %d",
					strategy, threads, len(res.FitHistory), len(ref.FitHistory))
			}
			for i := range ref.FitHistory {
				if res.FitHistory[i] != ref.FitHistory[i] {
					t.Fatalf("strategy=%v threads=%d: sweep %d fit %v != %v (not bitwise invariant)",
						strategy, threads, i, res.FitHistory[i], ref.FitHistory[i])
				}
			}
		}
	}
}
