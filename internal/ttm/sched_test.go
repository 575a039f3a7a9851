package ttm

import (
	"math/rand"
	"slices"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
)

var allSchedules = []par.Schedule{par.ScheduleBalanced, par.ScheduleDynamic, par.ScheduleStatic}

// schedSetups are the flat-kernel determinism fixtures: a 3-mode
// tensor (every mode contracts two rows, the fused k=2 kernel) and a
// 4-mode tensor at uneven ranks (three rows, the reassociated k=3
// kernel, with shapes whose suffix scratch exceeds the prefix scratch).
var schedSetups = []struct {
	dims, ranks []int
	nnz         int
}{
	{[]int{40, 25, 30}, []int{4, 3, 5}, 900},
	{[]int{18, 14, 11, 9}, []int{2, 7, 6, 1}, 900},
}

// Every schedule and thread count must produce the bitwise-identical
// flat TTMc result: the schedules move row ownership between workers,
// never the per-row accumulation order.
func TestTTMcSchedBitwiseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, su := range schedSetups {
		x, u, sym := randomSetup(rng, su.dims, su.ranks, su.nnz)
		for mode := 0; mode < x.Order(); mode++ {
			sm := &sym.Modes[mode]
			ref := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
			TTMc(ref, x, sm, u, 1)
			for _, sched := range allSchedules {
				for _, threads := range []int{1, 2, 4, 8} {
					y := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
					TTMcSched(y, x, sm, u, threads, sched)
					for i := range ref.Data {
						if y.Data[i] != ref.Data[i] {
							t.Fatalf("order=%d mode=%d sched=%v threads=%d: bit difference at %d",
								x.Order(), mode, sched, threads, i)
						}
					}
				}
			}
		}
	}
}

func TestTTMcRowsSchedBitwiseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, su := range schedSetups {
		x, u, sym := randomSetup(rng, su.dims, su.ranks, su.nnz)
		for mode := 0; mode < x.Order(); mode++ {
			sm := &sym.Modes[mode]
			rows := make([]int32, 0, sm.NumRows())
			for r := 0; r < sm.NumRows(); r += 2 {
				rows = append(rows, int32(r))
			}
			ref := dense.NewMatrix(len(rows), RowSize(u, mode))
			TTMcRows(ref, x, sm, rows, u, 1)
			// A subset row is the full kernel's row, bit for bit.
			full := dense.NewMatrix(sm.NumRows(), RowSize(u, mode))
			TTMc(full, x, sm, u, 1)
			for j, r := range rows {
				if !slices.Equal(ref.Row(j), full.Row(int(r))) {
					t.Fatalf("order=%d mode=%d: subset row %d differs from full row %d", x.Order(), mode, j, r)
				}
			}
			for _, sched := range allSchedules {
				for _, threads := range []int{1, 2, 4, 8} {
					y := dense.NewMatrix(len(rows), RowSize(u, mode))
					TTMcRowsSched(y, x, sm, rows, u, threads, sched)
					for i := range ref.Data {
						if y.Data[i] != ref.Data[i] {
							t.Fatalf("order=%d mode=%d sched=%v threads=%d: bit difference at %d",
								x.Order(), mode, sched, threads, i)
						}
					}
				}
			}
		}
	}
}

func TestDTreeSchedBitwiseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	x, u, _ := randomSetup(rng, []int{12, 9, 7, 5}, []int{3, 2, 2, 3}, 400)
	want := make([]*dense.Matrix, x.Order())
	refTree := NewDTree(x)
	refTree.SetSchedule(par.ScheduleDynamic)
	for mode := 0; mode < x.Order(); mode++ {
		want[mode] = dense.NewMatrix(refTree.NumRows(mode), RowSize(u, mode))
		refTree.TTMc(want[mode], mode, u, 1)
		refTree.Invalidate(mode)
	}
	for _, sched := range allSchedules {
		for _, threads := range []int{1, 3, 8} {
			tree := NewDTree(x)
			tree.SetSchedule(sched)
			for mode := 0; mode < x.Order(); mode++ {
				y := dense.NewMatrix(tree.NumRows(mode), RowSize(u, mode))
				tree.TTMc(y, mode, u, threads)
				tree.Invalidate(mode)
				for i := range want[mode].Data {
					if y.Data[i] != want[mode].Data[i] {
						t.Fatalf("sched=%v threads=%d mode=%d: bit difference at %d",
							sched, threads, mode, i)
					}
				}
			}
		}
	}
}

// The balanced schedule's partition cached on the symbolic mode must
// survive thread-count changes (rebuild) without changing results.
func TestTTMcPartitionCacheAcrossThreadCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	x, u, sym := randomSetup(rng, []int{20, 15, 10}, []int{3, 3, 3}, 500)
	sm := &sym.Modes[1]
	ref := dense.NewMatrix(sm.NumRows(), RowSize(u, sm.N))
	TTMcSched(ref, x, sm, u, 2, par.ScheduleBalanced)
	for _, threads := range []int{4, 2, 8, 2} {
		y := dense.NewMatrix(sm.NumRows(), RowSize(u, sm.N))
		TTMcSched(y, x, sm, u, threads, par.ScheduleBalanced)
		if !slices.Equal(y.Data, ref.Data) {
			t.Fatalf("threads=%d: cached partition broke results", threads)
		}
		if got := len(sm.Chains(threads)) - 1; got != threads {
			t.Fatalf("threads=%d: cached partition has %d chains", threads, got)
		}
	}
}
