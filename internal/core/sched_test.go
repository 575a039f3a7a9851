package core

import (
	"math/rand"
	"testing"

	"hypertensor/internal/gen"
)

// The HOOI fit trajectory must be bitwise identical for every thread
// count under the static and balanced schedules (the dynamic schedule
// shares the owner-computes kernels and deterministic reductions, so it
// is held to the same bar). This is the determinism acceptance test of
// the parallel runtime: partitions move row ownership between workers
// but never an accumulation order, and every reduction runs on a block
// grid that depends only on the problem size.
func TestFitBitwiseInvariantAcrossThreadsAndSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := lowRankTensor(rng, []int{24, 18, 15, 9}, 2, 5)
	for _, strategy := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
		for _, sched := range []Schedule{ScheduleStatic, ScheduleBalanced, ScheduleDynamic} {
			var ref *Result
			for _, threads := range []int{1, 2, 4, 8} {
				res, err := Decompose(x, Options{
					Ranks:    []int{2, 2, 2, 2},
					MaxIters: 4,
					Tol:      -1,
					Threads:  threads,
					Schedule: sched,
					TTMc:     strategy,
					Seed:     5,
				})
				if err != nil {
					t.Fatalf("strategy=%v sched=%v threads=%d: %v",
						strategy, sched, threads, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if len(res.FitHistory) != len(ref.FitHistory) {
					t.Fatalf("strategy=%v sched=%v threads=%d: %d sweeps vs %d",
						strategy, sched, threads, len(res.FitHistory), len(ref.FitHistory))
				}
				for i := range ref.FitHistory {
					if res.FitHistory[i] != ref.FitHistory[i] {
						t.Fatalf("strategy=%v sched=%v threads=%d: sweep %d fit %v != %v (not bitwise invariant)",
							strategy, sched, threads, i, res.FitHistory[i], ref.FitHistory[i])
					}
				}
			}
		}
	}
}

// Schedules must also agree with each other bit for bit, not just
// within themselves.
func TestSchedulesAgreeBitwise(t *testing.T) {
	x := gen.Random(mustPreset(t, "netflix", 0.02))
	var ref *Result
	for _, sched := range []Schedule{ScheduleBalanced, ScheduleDynamic, ScheduleStatic} {
		res, err := Decompose(x, Options{
			Ranks:    []int{4, 4, 4},
			MaxIters: 3,
			Tol:      -1,
			Threads:  4,
			Schedule: sched,
			Seed:     9,
		})
		if err != nil {
			t.Fatalf("sched=%v: %v", sched, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range ref.FitHistory {
			if res.FitHistory[i] != ref.FitHistory[i] {
				t.Fatalf("sched=%v sweep %d: fit %v != %v", sched, i, res.FitHistory[i], ref.FitHistory[i])
			}
		}
	}
}

func mustPreset(t *testing.T, name string, scale float64) gen.Config {
	t.Helper()
	cfg, err := gen.Preset(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
