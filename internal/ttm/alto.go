package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// ALTOTTMc is the sequential-stream TTMc engine over an adaptive
// linearized (ALTO) tensor. The format stores one sorted key stream, so
// every mode's product is computed by scanning the same stream front to
// back — no per-root-mode hierarchy to walk and no gather order to
// re-derive per mode. Parallelism comes from a recursive halving of the
// linearized range into a fixed block grid (a function of the nonzero
// count only, never the thread count), and the conflict-free output
// discipline is chosen per mode:
//
//   - Short modes accumulate into per-block dense slabs (dim x rowSize
//     each) while streaming their block's key range, then reduce the
//     slabs into the output rows in ascending block order — the
//     fixed-block discipline of par.SumBlocks, so results are bitwise
//     identical for every thread count and schedule.
//   - Long modes (where the slabs would not fit the accumulator budget)
//     fall back to owner-computes emission over the symbolic update
//     lists: every output row is owned by exactly one worker and its
//     nonzeros are accumulated in list order, exactly like the flat
//     kernel.
//
// The engine borrows the symbolic structure built from the same ALTO
// tensor and is not safe for concurrent use.
type ALTOTTMc struct {
	x   *tensor.ALTO
	sym *symbolic.Structure

	sched par.Schedule
	flops int64

	// bounds is the recursive-split block grid over the linearized
	// range: block b covers stream positions [bounds[b], bounds[b+1]).
	bounds []int32
	// acc is the reusable per-block dense accumulator arena of the
	// short-mode path.
	acc []float64
}

// altoAccBudget caps the short-mode accumulator arena (in float64
// entries): blocks x dim x rowSize beyond it switches the mode to the
// owner-computes path.
const altoAccBudget = 1 << 22

// altoSplitBounds derives the fixed block grid by recursively halving
// [0, n): splitting stops at 64 blocks or when a further halving would
// drop blocks below ~4096 nonzeros. The grid depends only on n, which
// is what makes the blocked reduction thread-count invariant.
func altoSplitBounds(n int) []int32 {
	blocks := 1
	for blocks < 64 && n/(blocks*2) >= 4096 {
		blocks *= 2
	}
	out := make([]int32, 0, blocks+1)
	var split func(lo, hi, k int)
	split = func(lo, hi, k int) {
		if k == 1 {
			out = append(out, int32(lo))
			return
		}
		mid := lo + (hi-lo)/2
		split(lo, mid, k/2)
		split(mid, hi, k-k/2)
	}
	split(0, n, blocks)
	return append(out, int32(n))
}

// NewALTOTTMc builds the engine over an ALTO tensor and the symbolic
// structure built from that same tensor. x must have order >= 2 and at
// least one nonzero.
func NewALTOTTMc(x *tensor.ALTO, sym *symbolic.Structure) *ALTOTTMc {
	if x.Order() < 2 {
		panic("ttm: ALTOTTMc needs an order >= 2 tensor")
	}
	if x.NNZ() == 0 {
		panic("ttm: ALTOTTMc needs a nonempty tensor")
	}
	if len(sym.Modes) != x.Order() {
		panic("ttm: symbolic structure does not match the ALTO tensor")
	}
	return &ALTOTTMc{
		x:      x,
		sym:    sym,
		sched:  par.ScheduleBalanced,
		bounds: altoSplitBounds(x.NNZ()),
	}
}

// SetSchedule selects the scheduling discipline for subsequent kernel
// calls: balanced (weight-aware chains, the default), dynamic (chunked
// self-scheduling), or static (uniform blocks). The numeric results are
// bitwise identical under every schedule; only load balance differs.
func (k *ALTOTTMc) SetSchedule(s par.Schedule) { k.sched = s }

// Rebind swaps the engine onto a different ALTO tensor with the
// identical key stream (e.g. a clone taken so a resident engine can
// apply value-only merges without touching the plan's copy) and its
// symbolic structure. A structural change requires a fresh engine.
func (k *ALTOTTMc) Rebind(x *tensor.ALTO, sym *symbolic.Structure) {
	if x.Order() != k.x.Order() || x.NNZ() != k.x.NNZ() {
		panic("ttm: Rebind tensor does not match the engine's structure")
	}
	k.x = x
	k.sym = sym
}

// NumRows returns the number of compact result rows for mode n (the
// count of nonempty slices), matching symbolic.Mode.NumRows.
func (k *ALTOTTMc) NumRows(n int) int { return k.sym.Modes[n].NumRows() }

// Rows returns the sorted nonempty slice indices of mode n, matching
// symbolic.Mode.Rows.
func (k *ALTOTTMc) Rows(n int) []int32 { return k.sym.Modes[n].Rows }

// Flops returns the accumulated multiply-add count of all kernel
// invocations so far (dominant AXPY terms, the same convention as the
// flat kernel's Flops).
func (k *ALTOTTMc) Flops() int64 { return k.flops }

// ResetFlops clears the accumulated flop counter.
func (k *ALTOTTMc) ResetFlops() { k.flops = 0 }

// useDense reports whether mode n takes the blocked dense-accumulator
// path for the given row size. The decision depends only on the tensor
// and the factor shapes — never the thread count or schedule — so the
// accumulation order (and hence the bits) of the result is stable.
func (k *ALTOTTMc) useDense(n, rowSize int) bool {
	dim := k.x.Shape()[n]
	blocks := len(k.bounds) - 1
	return int64(blocks)*int64(dim)*int64(rowSize) <= altoAccBudget
}

// TTMc computes the mode-n matricized product into y (pre-shaped
// NumRows(n) x RowSize(u, n); overwritten). U[n] is not referenced and
// may be nil.
func (k *ALTOTTMc) TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int) {
	rowSize := RowSize(u, n)
	sm := &k.sym.Modes[n]
	if y.Rows != sm.NumRows() || y.Cols != rowSize {
		panic("ttm: ALTOTTMc output shape mismatch")
	}
	threads = par.DefaultThreads(threads)
	if k.useDense(n, rowSize) {
		k.denseTTMc(y, n, sm, u, rowSize, threads)
	} else {
		// Long modes: the flat owner-computes row loop over the symbolic
		// update lists, gathering coordinates from the de-linearized
		// streams.
		flatRows(y, k.x, sm, nil, u, threads, k.sched)
	}
	k.flops += Flops(k.x.NNZ(), rowSize)
}

// denseTTMc is the short-mode path: stream each block's linearized
// range into a per-block dim x rowSize slab, then reduce the slabs into
// the compact output rows in ascending block order.
func (k *ALTOTTMc) denseTTMc(y *dense.Matrix, n int, sm *symbolic.Mode, u []*dense.Matrix, rowSize, threads int) {
	x := k.x
	dim := x.Shape()[n]
	blocks := len(k.bounds) - 1
	slab := dim * rowSize
	need := blocks * slab
	if cap(k.acc) < need {
		k.acc = make([]float64, need)
	}
	acc := k.acc[:need]

	kr := newKron(x, u, n, n+1)
	keys := x.ModeStream(n)

	chains := func() []int32 {
		w := make([]int64, blocks)
		for b := range w {
			w[b] = int64(k.bounds[b+1] - k.bounds[b])
		}
		return par.PartitionChains(w, threads)
	}
	scs := make([]kronScratch, threads)
	runRows(k.sched, blocks, threads, chains, func(w, blo, bhi int) {
		sc := kr.scratch(scs, w)
		for b := blo; b < bhi; b++ {
			base := b * slab
			// Each block has exactly one owner, so zeroing its slab here
			// parallelizes under the same ownership as the accumulation.
			clear(acc[base : base+slab])
			for i := int(k.bounds[b]); i < int(k.bounds[b+1]); i++ {
				row := acc[base+int(keys[i])*rowSize:][:rowSize]
				kr.add(row, i, sc)
			}
		}
	})

	runRows(k.sched, sm.NumRows(), threads, func() []int32 { return sm.Chains(threads) },
		func(w, lo, hi int) {
			for r := lo; r < hi; r++ {
				row := y.Row(r)
				for i := range row {
					row[i] = 0
				}
				off := int(sm.Rows[r]) * rowSize
				for b := 0; b < blocks; b++ {
					src := acc[b*slab+off:][:rowSize]
					for i, v := range src {
						row[i] += v
					}
				}
			}
		})
}

// TTMcRows computes the product only for the symbolic row positions
// listed in rows (ascending positions into the mode's Rows): y.Row(j)
// receives the row for slice Rows(n)[rows[j]]. Subsets always take the
// owner-computes path — a partial output cannot amortize the dense
// slabs.
func (k *ALTOTTMc) TTMcRows(y *dense.Matrix, n int, rows []int32, u []*dense.Matrix, threads int) {
	rowSize := RowSize(u, n)
	sm := &k.sym.Modes[n]
	if y.Rows != len(rows) || y.Cols != rowSize {
		panic("ttm: ALTOTTMc TTMcRows output shape mismatch")
	}
	flatRows(y, k.x, sm, rows, u, threads, k.sched)
	var nnzDone int64
	for _, r := range rows {
		nnzDone += int64(sm.Ptr[r+1] - sm.Ptr[r])
	}
	k.flops += nnzDone * int64(rowSize)
}
