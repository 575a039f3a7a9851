package core

import (
	"context"
	"math"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

func presetTensor(t *testing.T, name string, scale float64) (*tensor.COO, []int) {
	t.Helper()
	cfg, err := gen.Preset(name, scale)
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
	return x, ranks
}

// TestEngineUpdateMatchesScratch is the acceptance bar of the
// incremental path: after a ~1% delta on a 3-mode and a 4-mode preset,
// Engine.Update must re-converge to within 1e-8 of a from-scratch solve
// of the merged tensor, for both TTMc strategies, while never executing
// more TTMc madds per re-convergence sweep than a recompute-everything
// flat sweep — and strictly fewer on the memoized dimension tree.
func TestEngineUpdateMatchesScratch(t *testing.T) {
	for _, name := range []string{"netflix", "flickr"} {
		x, ranks := presetTensor(t, name, 0.02)
		delta := gen.Delta(x, 0.005, 0.005, 99)
		merged := x.Clone()
		if _, err := merged.Merge(delta); err != nil {
			t.Fatal(err)
		}
		for _, strat := range []TTMcStrategy{TTMcFlat, TTMcDTree} {
			opts := Options{Ranks: ranks, MaxIters: 80, Tol: 1e-10, Seed: 7, TTMc: strat}
			p, err := NewPlan(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(p)
			if _, err := e.Run(context.Background()); err != nil {
				t.Fatalf("%s strat=%v run: %v", name, strat, err)
			}
			ru, err := e.Update(delta)
			if err != nil {
				t.Fatalf("%s strat=%v update: %v", name, strat, err)
			}
			rc, err := Decompose(merged, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(ru.Fit - rc.Fit); d > 1e-8 {
				t.Fatalf("%s strat=%v: incremental fit %v vs scratch %v (|d|=%g)",
					name, strat, ru.Fit, rc.Fit, d)
			}
			if ru.UpdateSweeps <= 0 || ru.UpdateSweeps != ru.Iters {
				t.Fatalf("%s: update sweep accounting broken (%d vs %d)", name, ru.UpdateSweeps, ru.Iters)
			}
			if ru.UpdateMadds <= 0 || ru.FullSweepMadds <= 0 {
				t.Fatalf("%s: update madds accounting missing (%d, %d)", name, ru.UpdateMadds, ru.FullSweepMadds)
			}
			perSweep := ru.UpdateMadds / int64(ru.UpdateSweeps)
			if perSweep > ru.FullSweepMadds {
				t.Fatalf("%s strat=%v: update executed %d madds/sweep, full sweep is %d",
					name, strat, perSweep, ru.FullSweepMadds)
			}
			if strat == TTMcDTree && perSweep >= ru.FullSweepMadds {
				t.Fatalf("%s strat=%v: memoized update should beat the full sweep (%d vs %d)",
					name, strat, perSweep, ru.FullSweepMadds)
			}
			if ru.DeltaNNZ <= 0 {
				t.Fatalf("%s: DeltaNNZ not recorded", name)
			}
		}
	}
}

// TestEngineUpdateScale02 pins the issue's acceptance criterion at the
// benchmark scale: after a ~1% delta on the scale-0.2 netflix preset,
// Engine.Update re-converges to within 1e-8 of the from-scratch fit in
// fewer sweeps, executing measurably fewer TTMc madds per sweep than a
// recompute-everything flat sweep.
func TestEngineUpdateScale02(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.2 acceptance run skipped in -short mode")
	}
	x, ranks := presetTensor(t, "netflix", 0.2)
	delta := gen.Delta(x, 0.005, 0.005, 99)
	merged := x.Clone()
	if _, err := merged.Merge(delta); err != nil {
		t.Fatal(err)
	}
	opts := Options{Ranks: ranks, MaxIters: 100, Tol: 1e-10, Seed: 7, TTMc: TTMcDTree}
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
	if d := math.Abs(ru.Fit - rc.Fit); d > 1e-8 {
		t.Fatalf("scale-0.2 incremental fit %v vs scratch %v (|d|=%g)", ru.Fit, rc.Fit, d)
	}
	if ru.UpdateSweeps >= rc.Iters {
		t.Fatalf("warm re-convergence took %d sweeps, cold solve %d", ru.UpdateSweeps, rc.Iters)
	}
	perSweep := ru.UpdateMadds / int64(ru.UpdateSweeps)
	if perSweep >= ru.FullSweepMadds {
		t.Fatalf("update executed %d madds/sweep, full flat sweep is %d", perSweep, ru.FullSweepMadds)
	}
}

// TestEngineUpdateDeterminism pins the bitwise thread- and schedule-
// invariance contract of the update path: the re-convergence fit
// trajectory must be identical for every thread count and every
// schedule.
func TestEngineUpdateDeterminism(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.02)
	delta := gen.Delta(x, 0.01, 0.01, 5)
	var ref []float64
	for _, threads := range []int{1, 2, 4, 8} {
		for _, sched := range []Schedule{ScheduleBalanced, ScheduleDynamic, ScheduleStatic} {
			opts := Options{Ranks: ranks, MaxIters: 6, Tol: -1, Seed: 3,
				TTMc: TTMcDTree, Threads: threads, Schedule: sched}
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
			if ref == nil {
				ref = ru.FitHistory
				continue
			}
			if len(ru.FitHistory) != len(ref) {
				t.Fatalf("threads=%d sched=%v: %d sweeps vs %d", threads, sched, len(ru.FitHistory), len(ref))
			}
			for i := range ref {
				if ru.FitHistory[i] != ref[i] {
					t.Fatalf("threads=%d sched=%v: update fit trajectory diverged at sweep %d (%v vs %v)",
						threads, sched, i, ru.FitHistory[i], ref[i])
				}
			}
		}
	}
}

// TestEnginePlanReuse checks the Plan/Engine ownership contract: two
// engines on one plan produce identical results, and updates through
// one engine leave both the plan's tensor and the sibling engine
// untouched.
func TestEnginePlanReuse(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.01)
	nnz0 := x.NNZ()
	val0 := x.Val[0]
	opts := Options{Ranks: ranks, MaxIters: 3, Tol: -1, Seed: 11, TTMc: TTMcDTree}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewEngine(p), NewEngine(p)
	ra, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	delta := gen.Delta(x, 0.01, 0.01, 2)
	if _, err := a.Update(delta); err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != nnz0 || x.Val[0] != val0 {
		t.Fatalf("engine update mutated the caller's tensor (nnz %d -> %d)", nnz0, x.NNZ())
	}
	rb, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.FitHistory) != len(rb.FitHistory) {
		t.Fatalf("sibling engines diverged: %d vs %d sweeps", len(ra.FitHistory), len(rb.FitHistory))
	}
	for i := range ra.FitHistory {
		if ra.FitHistory[i] != rb.FitHistory[i] {
			t.Fatalf("sibling engines diverged at sweep %d", i)
		}
	}
}

// TestEngineSequentialUpdates streams several deltas through one handle
// and checks the terminal state still matches a cold solve of the fully
// merged tensor.
func TestEngineSequentialUpdates(t *testing.T) {
	x, ranks := presetTensor(t, "flickr", 0.01)
	opts := Options{Ranks: ranks, MaxIters: 80, Tol: 1e-10, Seed: 13, TTMc: TTMcDTree}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	merged := x.Clone()
	var last *Result
	for step := 0; step < 3; step++ {
		delta := gen.Delta(merged, 0.004, 0.004, int64(100+step))
		if _, err := merged.Merge(delta); err != nil {
			t.Fatal(err)
		}
		last, err = e.Update(delta)
		if err != nil {
			t.Fatalf("update %d: %v", step, err)
		}
	}
	rc, err := Decompose(merged, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(last.Fit - rc.Fit); d > 1e-8 {
		t.Fatalf("after 3 streamed deltas fit %v vs scratch %v (|d|=%g)", last.Fit, rc.Fit, d)
	}
	// The engine's merged tensor must equal the reference merge.
	et := e.Tensor().Clone().SortDedup()
	mt := merged.Clone().SortDedup()
	if et.NNZ() != mt.NNZ() {
		t.Fatalf("engine tensor has %d nonzeros, reference %d", et.NNZ(), mt.NNZ())
	}
}

// TestEngineUpdateErrors checks that invalid deltas are rejected before
// any state mutation and the handle stays usable.
func TestEngineUpdateErrors(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.01)
	opts := Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 1}
	p, err := NewPlan(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fitBefore := e.Result().Fit
	if _, err := e.Update(tensor.NewCOO([]int{3, 3}, 0)); err == nil {
		t.Fatal("order-mismatched delta accepted")
	}
	bad := tensor.NewCOO(x.Dims, 1)
	bad.Idx[0] = append(bad.Idx[0], int32(x.Dims[0])) // out of range
	for m := 1; m < x.Order(); m++ {
		bad.Idx[m] = append(bad.Idx[m], 0)
	}
	bad.Val = append(bad.Val, 1)
	if _, err := e.Update(bad); err == nil {
		t.Fatal("out-of-range delta accepted")
	}
	// Empty delta: a no-op merge followed by a (warm, quick) re-converge.
	r, err := e.Update(tensor.NewCOO(x.Dims, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Fit-fitBefore) > 1e-6 {
		t.Fatalf("empty delta moved the fit from %v to %v", fitBefore, r.Fit)
	}
	if r.DeltaNNZ != 0 {
		t.Fatalf("empty delta reported %d ingested nonzeros", r.DeltaNNZ)
	}
}

// TestEngineRunCancellation: a canceled context aborts between sweeps.
func TestEngineRunCancellation(t *testing.T) {
	x, ranks := presetTensor(t, "netflix", 0.01)
	p, err := NewPlan(x, Options{Ranks: ranks, MaxIters: 50, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewEngine(p).Run(ctx); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
}
