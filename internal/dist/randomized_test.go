package dist

import (
	"context"
	"sync"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// Under randomized task placement (MethodRandom, both grains) the
// Lanczos TRSVD's collectives and the sparse expand/fold exchanges see
// irregular ownership, yet every reduction runs in fixed rank order, so
// the fit trajectory and factors must be bitwise identical between the
// simulated in-process world and a real TCP mesh — including a tensor
// with a mode smaller than the rank count, where some ranks own zero
// rows of that matricization and take part with empty panels.
func TestRandomizedTransportBitwise(t *testing.T) {
	for _, tc := range []struct {
		name  string
		x     *tensor.COO
		ranks []int
		p     int
		g     Grain
	}{
		{"3mode-fine", testTensor3(t), []int{4, 3, 3}, 4, Fine},
		{"4mode-coarse", testTensor4(t), []int{2, 2, 3, 2}, 2, Coarse},
		// Mode 2 has 3 rows split across 4 ranks: at least one rank owns
		// zero rows of Y_(2) and must stay in lockstep through the
		// Lanczos collectives.
		{"zero-row-rank", gen.Random(gen.Config{Dims: []int{25, 20, 3}, NNZ: 600, Skew: 0.4, Seed: 31}), []int{3, 3, 2}, 4, Coarse},
	} {
		part, err := MakePartition(tc.x, tc.p, tc.g, MethodRandom, 11)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg := Config{Ranks: tc.ranks, MaxIters: 3, Tol: -1, Seed: 17}
		sim, err := Decompose(tc.x, part, cfg)
		if err != nil {
			t.Fatalf("%s simulated: %v", tc.name, err)
		}

		worlds := tcpWorlds(t, tc.p)
		results := make([]*Result, tc.p)
		errs := make([]error, tc.p)
		var wg sync.WaitGroup
		wg.Add(tc.p)
		for r := 0; r < tc.p; r++ {
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = DecomposeWorld(context.Background(), worlds[r], tc.x, part, cfg)
			}(r)
		}
		wg.Wait()
		for r := 0; r < tc.p; r++ {
			if errs[r] != nil {
				t.Fatalf("%s tcp rank %d: %v", tc.name, r, errs[r])
			}
		}
		for r, res := range results {
			if len(res.FitHistory) != len(sim.FitHistory) {
				t.Fatalf("%s rank %d: %d sweeps over TCP vs %d simulated",
					tc.name, r, len(res.FitHistory), len(sim.FitHistory))
			}
			for i := range sim.FitHistory {
				if res.FitHistory[i] != sim.FitHistory[i] { // bitwise, not approximate
					t.Fatalf("%s rank %d sweep %d: TCP fit %.17g != simulated %.17g",
						tc.name, r, i, res.FitHistory[i], sim.FitHistory[i])
				}
			}
			for n := range sim.Factors {
				for i := range sim.Factors[n].Data {
					if res.Factors[n].Data[i] != sim.Factors[n].Data[i] {
						t.Fatalf("%s rank %d: factor %d differs at %d", tc.name, r, n, i)
					}
				}
			}
		}
	}
}
