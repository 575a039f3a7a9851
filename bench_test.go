package hypertensor

// Benchmarks regenerating each of the paper's evaluation artifacts
// (Tables I-V and the MET comparison) at reduced scale, plus ablation
// benchmarks for the kernel choices described in docs/architecture.md
// ("Kernel choices and their ablations"). The cmd/htbench tool runs the
// same drivers at full scale with formatted output; these testing.B
// entry points keep every experiment wired into `go test -bench`.

import (
	"io"
	"testing"

	"hypertensor/internal/bench"
	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/dist"
	"hypertensor/internal/gen"
	"hypertensor/internal/hypergraph"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// benchOpts shrinks the experiments to tenths of seconds per run.
func benchOpts() bench.Options {
	return bench.Options{Scale: 0.05, Ps: []int{1, 2, 4}, P: 4, Iters: 1, Threads: []int{1, 2}, Seed: 1}
}

func BenchmarkTableI_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableI(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableII(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingSweep keeps the htbench -scaling driver wired into
// the CI benchmark smoke: it fails the pipeline if a sweep errors or a
// dataset's fit trajectory stops being bitwise invariant across thread
// counts.
func BenchmarkScalingSweep(b *testing.B) {
	o := benchOpts()
	o.Reps = 1
	for i := 0; i < b.N; i++ {
		rep, err := bench.Scaling(o, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rep.Rows {
			if !row.FitInvariant {
				b.Fatalf("%s: fit not bitwise invariant across thread counts", row.Dataset)
			}
		}
	}
}

func BenchmarkTableIII_CommStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableIII(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV_StepBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableIV(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV_SharedMemoryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableV(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMET_Comparison(b *testing.B) {
	o := benchOpts()
	o.Scale = 0.1
	o.Iters = 5
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		res, err := bench.MET(o, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		lastRatio = res.Ratio
	}
	b.ReportMetric(lastRatio, "met/ours-speedup")
}

// BenchmarkDTreeVsFlat reports the dimension-tree TTMc comparison: the
// per-sweep flop ratio on the 4-mode Flickr-like tensor is the headline
// metric (host independent), alongside the measured sweep times.
func BenchmarkDTreeVsFlat(b *testing.B) {
	o := benchOpts()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.DTreeCompare(o, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == "flickr" {
				ratio = r.FlopRatio
			}
		}
	}
	b.ReportMetric(ratio, "flat/dtree-flops")
}

// --- Ablations -------------------------------------------------------

// ablationSetup builds a mid-size tensor with factor matrices and the
// symbolic structure shared by the kernel ablations.
func ablationSetup() (*SparseTensor, []*dense.Matrix, *symbolic.Structure) {
	x := gen.Random(gen.Config{Dims: []int{2000, 1500, 1000}, NNZ: 80000, Skew: 0.7, Seed: 2})
	us := make([]*dense.Matrix, 3)
	seedRNG := dist.DefaultInitial(x.Dims, []int{10, 10, 10}, 3)
	copy(us, seedRNG)
	return x, us, symbolic.Build(x, 0)
}

// Fused per-nonzero Kronecker accumulation (the production kernel)...
func BenchmarkAblationTTMcFused(b *testing.B) {
	x, us, sym := ablationSetup()
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), ttm.RowSize(us, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ttm.TTMc(y, x, sm, us, 0)
	}
}

// ...versus materializing the full Kronecker temporary per nonzero.
func BenchmarkAblationTTMcNaiveKron(b *testing.B) {
	x, us, sym := ablationSetup()
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), ttm.RowSize(us, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ttm.TTMcNaive(y, x, sm, us, 0)
	}
}

// Symbolic preprocessing cost (paid once)...
func BenchmarkAblationSymbolicBuild(b *testing.B) {
	x, _, _ := ablationSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symbolic.Build(x, 0)
	}
}

// ...versus the numeric sweep it accelerates every iteration (the
// reuse argument of §III.A.1: symbolic/numeric ≈ one-time vs per-sweep).
func BenchmarkAblationNumericSweep(b *testing.B) {
	x, us, sym := ablationSetup()
	ys := make([]*dense.Matrix, 3)
	for n := range ys {
		ys[n] = dense.NewMatrix(sym.Modes[n].NumRows(), ttm.RowSize(us, n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 3; n++ {
			ttm.TTMc(ys[n], x, &sym.Modes[n], us, 0)
		}
	}
}

// BenchmarkAblationTRSVDLanczos times HOOI sweeps whose TRSVD runs
// Lanczos (the paper's solver, and the only fixed-rank one) on a fixed
// matricized-tensor shape.
func BenchmarkAblationTRSVDLanczos(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{500, 400, 300}, NNZ: 20000, Skew: 0.5, Seed: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Decompose(x, core.Options{
			Ranks: []int{10, 10, 10}, MaxIters: 2, Tol: -1, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverCompare keeps the scaling report's TRSVD cell wired
// into the CI benchmark smoke: on every preset the fixed-rank Lanczos
// solve must report its operator madds and the adaptive-rank (eps)
// solve must choose a rank for every mode.
func BenchmarkSolverCompare(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"netflix", "nell", "delicious", "flickr"} {
			cfg, err := gen.Preset(name, o.Scale)
			if err != nil {
				b.Fatal(err)
			}
			x := gen.Random(cfg)
			ranks := gen.PaperRanks(x.Order())
			for n := range ranks {
				ranks[n] = min(ranks[n], x.Dims[n])
			}
			cell, err := bench.SolverCompare(x, ranks, o.Iters, 1, 2, o.Seed+31)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			if cell.LanczosMadds <= 0 || len(cell.EpsRanks) != x.Order() {
				b.Fatalf("%s: incomplete TRSVD cell %+v", name, cell)
			}
		}
	}
}

// BenchmarkCommVolume keeps the htbench -comm table wired into the CI
// benchmark smoke and holds its exactness claim: the realized sparse
// exchange's expand+fold payload must equal the cut model's byte
// prediction for every dataset, rank count, and placement method.
func BenchmarkCommVolume(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := bench.CommVolume(o, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for name, rs := range rows {
			for _, r := range rs {
				if r.Realized() != r.ModelBytes {
					b.Fatalf("%s %s p=%d: realized %d B != cut model %d B",
						name, r.Method, r.P, r.Realized(), r.ModelBytes)
				}
			}
		}
	}
}

// Partitioning ablation: multilevel hypergraph partitioning time and
// achieved cutsize versus the random baseline.
func BenchmarkAblationPartitionHypergraph(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{800, 600, 400}, NNZ: 30000, Skew: 0.6, Seed: 6})
	h := hypergraph.FineGrainModel(x)
	var cut int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := hypergraph.Partition(h, hypergraph.Options{Parts: 8, Seed: int64(i)})
		cut = h.CutsizeConn(parts, 8)
	}
	b.ReportMetric(float64(cut), "cutsize")
}

func BenchmarkAblationPartitionRandom(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{800, 600, 400}, NNZ: 30000, Skew: 0.6, Seed: 6})
	h := hypergraph.FineGrainModel(x)
	var cut int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := hypergraph.PartitionRandom(h.NumV, 8, int64(i))
		cut = h.CutsizeConn(parts, 8)
	}
	b.ReportMetric(float64(cut), "cutsize")
}

// End-to-end shared-memory HOOI throughput on a Netflix-like tensor
// (the per-iteration cost behind Table V).
func BenchmarkHOOIIterationSharedMemory(b *testing.B) {
	x, err := GeneratePreset("netflix", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Decompose(x, Options{Ranks: []int{10, 10, 10}, MaxIters: 1, Tol: -1, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Distributed iteration with the best partition (the per-iteration cost
// behind Table II's fine-hp column).
func BenchmarkHOOIIterationDistributed(b *testing.B) {
	x, err := GeneratePreset("netflix", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	part, err := NewPartition(x, 4, FineGrain, PartitionHypergraph, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := DecomposeDistributed(x, part, DistConfig{Ranks: []int{10, 10, 10}, MaxIters: 1, Tol: -1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Lanczos TRSVD on a tall dense matrix (the kernel behind §III.A.2).
func BenchmarkTRSVDKernel(b *testing.B) {
	x, us, sym := ablationSetup()
	sm := &sym.Modes[0]
	y := dense.NewMatrix(sm.NumRows(), ttm.RowSize(us, 0))
	ttm.TTMc(y, x, sm, us, 0)
	op := &trsvd.DenseOperator{A: y, Threads: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trsvd.Lanczos(op, 10, trsvd.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
