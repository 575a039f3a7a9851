package main

import (
	"fmt"
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// coldLayers adds the per-layer samples a traced shared-memory cold op
// returns through its Result.
func (b *bench) coldLayers(o *coldOp) {
	r, t, L := o.res, o.res.Timings, b.layers
	sweeps := float64(r.Iters)
	L.add("tensor.read_s", o.read.Seconds())
	L.add("tensor.read_mb_per_s", b.tnsMB/o.read.Seconds())
	L.add("tensor.convert_s", t.Convert.Seconds())
	L.add("tensor.index_bytes", float64(r.IndexBytes))
	L.add("core.plan_s", o.plan.Seconds())
	L.add("core.engine_init_s", o.engineInit.Seconds())
	L.add("core.sweeps", sweeps)
	L.add("core.allocs_per_sweep", float64(r.AllocsPerSweep))
	busy := t.Total().Seconds()
	L.add("ttm.ttmc_s", t.TTMc.Seconds())
	L.add("ttm.ttmc_share", t.TTMc.Seconds()/busy)
	if b.cfg.TTMc == "dtree" {
		L.add("ttm.node_s", t.TTMcNodes.Seconds())
	}
	L.add("ttm.leaf_s", (t.TTMc - t.TTMcNodes).Seconds())
	L.add("ttm.madds_per_sweep", float64(r.TTMcFlops)/sweeps)
	L.add("ttm.gmadds_per_s", float64(r.TTMcFlops)/t.TTMc.Seconds()/1e9)
	L.add("ttm.core_s", t.Core.Seconds())
	L.add("trsvd.s", t.TRSVD.Seconds())
	L.add("trsvd.share", t.TRSVD.Seconds()/busy)
	L.add("trsvd.madds_per_sweep", float64(r.TRSVDMadds)/sweeps)
}

// distLayers adds the per-layer samples of a traced distributed op
// from dist.Stats. Per-rank times enter as their maximum over ranks.
func (b *bench) distLayers(o *distOp) {
	st, L := o.res.Stats, b.layers
	sweeps := float64(o.res.Iters)
	L.add("tensor.read_s", o.read.Seconds())
	L.add("tensor.read_mb_per_s", b.tnsMB/o.read.Seconds())
	L.add("tensor.index_bytes", float64(b.x.IndexBytes()))
	L.add("core.sweeps", sweeps)
	L.add("hypergraph.partition_s", o.partition.Seconds())
	expand, fold := dist.ModeledCommVolume(b.x, o.part, b.cfg.Ranks)
	L.add("hypergraph.cut_bytes", float64(expand+fold))

	ttmc := dist.MaxDuration(st.TTMcTime).Seconds()
	trsvd := dist.MaxDuration(st.TRSVDTime).Seconds()
	core := dist.MaxDuration(st.CoreTime).Seconds()
	var sumBusy, maxBusy, maxWait float64
	for r := 0; r < st.P; r++ {
		busy := (st.TTMcTime[r] + st.TRSVDTime[r] + st.CoreTime[r]).Seconds()
		sumBusy += busy
		maxBusy = max(maxBusy, busy)
		maxWait = max(maxWait, st.RankWall[r].Seconds()-busy)
	}
	L.add("ttm.ttmc_share", ttmc/(ttmc+trsvd+core))
	L.add("trsvd.share", trsvd/(ttmc+trsvd+core))
	L.add("dist.symbolic_s", dist.MaxDuration(st.SymbolicTime).Seconds())
	L.add("dist.ttmc_s", ttmc)
	L.add("dist.trsvd_s", trsvd)
	L.add("dist.wait_s", maxWait)
	L.add("dist.imbalance", maxBusy/(sumBusy/float64(st.P)))

	var madds, expandB, foldB, trsvdB int64
	for _, mode := range st.Mode {
		for _, ms := range mode {
			madds += ms.WTTMc
			expandB += ms.ExpandBytes
			foldB += ms.FoldBytes
			trsvdB += ms.TRSVDBytes
		}
	}
	L.add("ttm.madds_per_sweep", float64(madds))
	L.add("ttm.gmadds_per_s", float64(madds)*sweeps/ttmc/1e9)
	L.add("dist.expand_bytes_per_sweep", float64(expandB))
	L.add("dist.fold_bytes_per_sweep", float64(foldB))
	L.add("dist.trsvd_bytes_per_sweep", float64(trsvdB))
	L.add("mpi.sent_bytes", float64(st.TotalSentBytes()))
}

// replay runs the symbolic build and one HOOI sweep after a traced op,
// outside the op's timing, on copies of the op's final factors: the
// layers' exported kernels called directly, one mode at a time, for the
// numbers the solvers do not return. Its spans are marked replay.
func (b *bench) replay(x *tensor.COO, factors []*dense.Matrix) {
	ranks := b.cfg.Ranks
	b.tr.replay = true
	defer func() { b.tr.replay = false }()
	root := b.tr.begin("replay")
	// The symbolic build alone: Timings.Symbolic of a cold Run also
	// counts the dimension-tree build NewEngine does.
	s := b.tr.begin("symbolic.Build")
	start := time.Now()
	sym := symbolic.Build(x, threads)
	if b.cfg.Processes == 0 {
		b.layers.add("symbolic.build_s", time.Since(start).Seconds())
	}
	b.tr.end(s, nil)
	u := make([]*dense.Matrix, len(factors))
	for n, f := range factors {
		u[n] = f.Clone()
	}
	state := core.NewSweepState(u, b.seed)
	var tree *ttm.DTree
	if b.cfg.TTMc == "dtree" {
		tree = ttm.NewDTree(x)
		tree.SetSchedule(core.ScheduleBalanced)
	}
	ys := make([]*dense.Matrix, len(u))

	var trsvdBytes, trsvdMadds, trsvdSec float64
	for n := range u {
		sm := &sym.Modes[n]
		ys[n] = dense.NewMatrix(sm.NumRows(), ttm.RowSize(u, n))
		s = b.tr.begin("ttm.TTMc")
		start = time.Now()
		var madds int64
		if tree != nil {
			before := tree.Flops()
			tree.TTMc(ys[n], n, u, threads)
			madds = tree.Flops() - before
		} else {
			ttm.TTMcSched(ys[n], x, sm, u, threads, core.ScheduleBalanced)
			madds = ttm.Flops(x.NNZ(), ys[n].Cols)
		}
		sec := time.Since(start).Seconds()
		b.tr.end(s, map[string]float64{"mode": float64(n), "madds": float64(madds)})
		b.layers.add(fmt.Sprintf("ttm.mode%d.ttmc_s", n), sec)
		b.layers.add(fmt.Sprintf("ttm.mode%d.madds", n), float64(madds))

		s = b.tr.begin("core.SweepState.SolveDense")
		start = time.Now()
		uc, applies, err := state.SolveDense(ys[n], n, ranks[n], core.SVDLanczos, threads, nil)
		sec = time.Since(start).Seconds()
		b.tr.end(s, map[string]float64{"mode": float64(n), "applies": float64(applies)})
		if err != nil {
			b.tr.end(root, nil)
			b.check("replay TRSVD", err)
			return
		}
		scatter(u[n], uc, sm.Rows)
		if tree != nil {
			tree.Invalidate(n)
		}
		cells := float64(ys[n].Rows) * float64(ys[n].Cols)
		trsvdMadds += float64(applies) * cells
		trsvdBytes += float64(applies) * cells * 8
		trsvdSec += sec
		b.layers.add(fmt.Sprintf("trsvd.mode%d.applies", n), float64(applies))
	}
	last := len(u) - 1
	s = b.tr.begin("ttm.Core")
	ttm.Core(ys[last], &sym.Modes[last], u[last], ranks, threads)
	b.tr.end(s, nil)
	b.tr.end(root, nil)
	b.layers.add("trsvd.gbytes_per_s", trsvdBytes/trsvdSec/1e9)
	if b.cfg.Processes > 0 {
		// The distributed solver reports TRSVD work per operator pass,
		// not its pass count, so its TRSVD madds come from the replay.
		b.layers.add("trsvd.madds_per_sweep", trsvdMadds)
	}
}

// scatter writes the compact TRSVD rows back into the full factor.
func scatter(full, compact *dense.Matrix, rows []int32) {
	full.Zero()
	for r, row := range rows {
		copy(full.Row(int(row)), compact.Row(r))
	}
}
