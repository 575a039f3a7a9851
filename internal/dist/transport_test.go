package dist

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"hypertensor/internal/gen"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
)

// tcpWorlds stands up one TCPWorld per rank over loopback, using
// pre-bound ephemeral-port listeners like the cmd/hooi spawn launcher.
func tcpWorlds(t *testing.T, p int) []*mpi.TCPWorld {
	t.Helper()
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	worlds := make([]*mpi.TCPWorld, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = mpi.ConnectTCP(context.Background(), r, addrs, mpi.TCPOptions{
				Listener: lns[r], Timeout: 60 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	return worlds
}

// TestTransportEquivalence is the transport contract of the PR: the same
// HOOI run (same tensor, partition, seed) over the simulated in-process
// world and over a real TCP mesh must produce bitwise-identical fit
// trajectories, factors, and payload-byte accounting — including a
// tensor with a mode smaller than the rank count, where some ranks own
// zero rows of that matricization and still take part in every Lanczos
// collective.
func TestTransportEquivalence(t *testing.T) {
	x3 := testTensor3(t)
	for _, pc := range []struct {
		x     *tensor.COO
		ranks []int
		p     int
		g     Grain
		m     Method
	}{
		{x3, []int{3, 3, 3}, 2, Fine, MethodHypergraph},
		{x3, []int{3, 3, 3}, 4, Fine, MethodHypergraph},
		{x3, []int{3, 3, 3}, 4, Coarse, MethodBlock},
		// zero-row-rank: mode 2 has 3 rows split across 4 ranks, so at
		// least one rank owns zero rows of Y_(2).
		{gen.Random(gen.Config{Dims: []int{25, 20, 3}, NNZ: 600, Skew: 0.4, Seed: 31}), []int{3, 3, 2}, 4, Coarse, MethodBlock},
	} {
		x := pc.x
		cfg := Config{Ranks: pc.ranks, MaxIters: 3, Tol: -1, Seed: 17}
		part, err := MakePartition(x, pc.p, pc.g, pc.m, 11)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Decompose(x, part, cfg)
		if err != nil {
			t.Fatalf("%s simulated: %v", part.Name(), err)
		}

		worlds := tcpWorlds(t, pc.p)
		results := make([]*Result, pc.p)
		errs := make([]error, pc.p)
		var wg sync.WaitGroup
		wg.Add(pc.p)
		for r := 0; r < pc.p; r++ {
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = DecomposeWorld(context.Background(), worlds[r], x, part, cfg)
			}(r)
		}
		wg.Wait()
		for r := 0; r < pc.p; r++ {
			if errs[r] != nil {
				t.Fatalf("%s tcp rank %d: %v", part.Name(), r, errs[r])
			}
		}

		for r, res := range results {
			if len(res.FitHistory) != len(sim.FitHistory) {
				t.Fatalf("%s rank %d: %d sweeps over TCP vs %d simulated",
					part.Name(), r, len(res.FitHistory), len(sim.FitHistory))
			}
			for i := range sim.FitHistory {
				if res.FitHistory[i] != sim.FitHistory[i] { // bitwise, not approximate
					t.Fatalf("%s rank %d sweep %d: TCP fit %.17g != simulated %.17g",
						part.Name(), r, i, res.FitHistory[i], sim.FitHistory[i])
				}
			}
			for n := range sim.Factors {
				for i := range sim.Factors[n].Data {
					if res.Factors[n].Data[i] != sim.Factors[n].Data[i] {
						t.Fatalf("%s rank %d: factor %d differs at %d", part.Name(), r, n, i)
					}
				}
			}
			for i := range sim.Core.Data {
				if res.Core.Data[i] != sim.Core.Data[i] {
					t.Fatalf("%s rank %d: core differs at %d", part.Name(), r, i)
				}
			}
			for q := 0; q < pc.p; q++ {
				if res.Stats.SentBytes[q] != sim.Stats.SentBytes[q] {
					t.Fatalf("%s rank %d: TCP accounting for rank %d is %d bytes, simulated %d",
						part.Name(), r, q, res.Stats.SentBytes[q], sim.Stats.SentBytes[q])
				}
			}
		}
	}
}

// TestTransportEquivalenceStatsComplete: every TCP rank must end with a
// full Stats block (the end-of-run allgather), matching the simulated
// per-mode communication volumes exactly.
func TestTransportEquivalenceStatsComplete(t *testing.T) {
	x := testTensor4(t)
	cfg := Config{Ranks: []int{2, 2, 3, 2}, MaxIters: 2, Tol: -1, Seed: 5}
	part, err := MakePartition(x, 3, Fine, MethodHypergraph, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Decompose(x, part, cfg)
	if err != nil {
		t.Fatal(err)
	}

	worlds := tcpWorlds(t, 3)
	results := make([]*Result, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	for r := 0; r < 3; r++ {
		go func(r int) {
			defer wg.Done()
			res, err := DecomposeWorld(context.Background(), worlds[r], x, part, cfg)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = res
		}(r)
	}
	wg.Wait()
	for r, res := range results {
		if res == nil {
			t.Fatalf("rank %d produced no result", r)
		}
		st := res.Stats
		if st.P != 3 || len(st.RankWall) != 3 || len(st.SentBytes) != 3 || len(st.Mode) != x.Order() {
			t.Fatalf("rank %d: stats mis-shaped: %+v", r, st)
		}
		for q := 0; q < 3; q++ {
			if st.RankWall[q] <= 0 {
				t.Fatalf("rank %d: no wall time recorded for rank %d", r, q)
			}
		}
		for n := range st.Mode {
			for q := range st.Mode[n] {
				if st.Mode[n][q] != sim.Stats.Mode[n][q] {
					t.Fatalf("rank %d mode %d: TCP stats %+v, simulated %+v",
						r, n, st.Mode[n][q], sim.Stats.Mode[n][q])
				}
			}
		}
		if got, want := st.TotalSentBytes(), sim.Stats.TotalSentBytes(); got != want {
			t.Fatalf("rank %d: total sent %d, simulated %d", r, got, want)
		}
	}
}

// TestDecomposeWorldSizeMismatch: a world of the wrong size must be
// rejected before any communication happens.
func TestDecomposeWorldSizeMismatch(t *testing.T) {
	x := testTensor3(t)
	part, err := MakePartition(x, 3, Fine, MethodHypergraph, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecomposeWorld(context.Background(), mpi.NewWorld(2), x, part, Config{Ranks: []int{3, 3, 3}, MaxIters: 1, Tol: -1})
	if err == nil {
		t.Fatal("accepted a 2-rank world for a 3-rank partition")
	}
}
