package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/dist"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
)

// Every run measures at least these many ops (deltas on ingest-3mode)
// after its warm-up op, so a short run still yields medians and both
// traced and untraced ops.
const (
	minOps    = 4
	minDeltas = 4
)

// bench is one run of one workload.
type bench struct {
	w       workloadSpec
	cfg     workloadConfig
	seed    int64
	dur     time.Duration
	traced  bool
	workDir string
	tns     string      // the generated input, written once per run
	tnsMB   float64     // its size
	x       *tensor.COO // the generated input the checks compare against
	tr      *tracer     // non-nil in the traced run

	e2e, layers       samples
	attempted, failed int
	history           []float64 // the first op's fit trajectory

	// The traced run's untraced ops, for trace.overhead_frac and
	// par.speedup_2t.
	untracedTTS, untracedSolve, tracedTTS []float64
}

func newBench(w workloadSpec, seed int64, dur time.Duration, traced bool, workDir string) (*bench, error) {
	x, err := generate(w.Config.Tensor, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{
		w: w, cfg: w.Config, seed: seed, dur: dur, traced: traced, workDir: workDir, x: x,
		tns:    filepath.Join(workDir, fmt.Sprintf("%s-seed%d.tns", w.Name, seed)),
		e2e:    samples{},
		layers: samples{},
	}
	if traced {
		b.tr = newTracer()
	}
	if err := tensor.WriteTNSFile(b.tns, x); err != nil {
		return nil, fmt.Errorf("write input: %w", err)
	}
	fi, err := os.Stat(b.tns)
	if err != nil {
		return nil, err
	}
	b.tnsMB = float64(fi.Size()) / 1e6
	return b, nil
}

// cleanup removes the generated input; a failure leaves only a stray
// file in the build directory, so it is not reported.
func (b *bench) cleanup() { _ = os.Remove(b.tns) }

func (b *bench) run() error {
	var err error
	switch b.w.Name {
	case "cold-4mode":
		err = b.runCold()
	case "ingest-3mode":
		err = b.runIngest()
	case "dist2-3mode":
		err = b.runDist()
	default:
		err = fmt.Errorf("no runner for workload %q", b.w.Name)
	}
	if err != nil || b.tr == nil {
		return err
	}
	if len(b.untracedTTS) > 0 && len(b.tracedTTS) > 0 {
		b.layers.add("trace.overhead_frac", median(b.tracedTTS)/median(b.untracedTTS)-1)
	}
	return b.tr.write(filepath.Join(b.workDir, fmt.Sprintf("trace-%s-seed%d.json", b.w.Name, b.seed)))
}

// check counts one attempted op and whether its checks passed.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
}

// checkHistory requires every op of the run to reproduce the first
// op's fit trajectory bitwise.
func (b *bench) checkHistory(h []float64) error {
	if b.history == nil {
		b.history = h
		return nil
	}
	return checkSameHistory(h, b.history)
}

// tracerFor returns the tracer for op i: in the traced run odd ops are
// traced and even ops are not, which gives the overhead comparison.
func (b *bench) tracerFor(i int) *tracer {
	if b.tr == nil || i%2 == 0 {
		return nil
	}
	b.tr.op = i
	return b.tr
}

func (b *bench) options(traced bool) core.Options {
	opts := core.Options{
		Ranks: b.cfg.Ranks, MaxIters: maxIters, Threads: threads, Seed: b.seed,
		MeasureAllocs: traced,
	}
	if b.cfg.TTMc == "dtree" {
		opts.TTMc = core.TTMcDTree
	}
	return opts
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// coldOp is one .tns → converged result through Plan and Engine.
type coldOp struct {
	read, plan, engineInit, setup, solve time.Duration
	heapMB                               float64
	eng                                  *core.Engine
	res                                  *core.Result
}

func (b *bench) runColdOp(opts core.Options, tr *tracer) (*coldOp, error) {
	o := &coldOp{}
	base := liveHeapMB()
	root := tr.begin("op.cold")
	err := b.coldCalls(o, opts, tr)
	tr.end(root, nil)
	if err != nil {
		return nil, err
	}
	o.heapMB = liveHeapMB() - base
	return o, nil
}

func (b *bench) coldCalls(o *coldOp, opts core.Options, tr *tracer) error {
	start := time.Now()
	s := tr.begin("tensor.ReadTNSFile")
	x, err := tensor.ReadTNSFile(b.tns)
	o.read = time.Since(start)
	tr.end(s, nil)
	if err != nil {
		return err
	}

	t := time.Now()
	s = tr.begin("core.NewPlan")
	plan, err := core.NewPlan(x, opts)
	o.plan = time.Since(t)
	tr.end(s, nil)
	if err != nil {
		return err
	}
	t = time.Now()
	s = tr.begin("core.NewEngine")
	o.eng = core.NewEngine(plan)
	o.engineInit = time.Since(t)
	tr.end(s, nil)
	o.setup = time.Since(start)

	t = time.Now()
	s = tr.begin("core.Engine.Run")
	o.res, err = o.eng.Run(context.Background())
	o.solve = time.Since(t)
	if err != nil {
		tr.end(s, nil)
		return err
	}
	tr.end(s, resultAttrs(o.res))
	if tr != nil {
		return reconcile(tr.spans[s], o.res.Timings)
	}
	return nil
}

// resultAttrs are the counters a Run or Update returns, attached to its
// span.
func resultAttrs(r *core.Result) map[string]float64 {
	t := r.Timings
	return map[string]float64{
		"convert_s": t.Convert.Seconds(), "symbolic_s": t.Symbolic.Seconds(),
		"ttmc_s": t.TTMc.Seconds(), "ttmc_nodes_s": t.TTMcNodes.Seconds(),
		"trsvd_s": t.TRSVD.Seconds(), "core_s": t.Core.Seconds(),
		"ttmc_madds": float64(r.TTMcFlops), "trsvd_madds": float64(r.TRSVDMadds),
		"allocs_per_sweep": float64(r.AllocsPerSweep), "sweeps": float64(r.Iters), "fit": r.Fit,
	}
}

// reconcile checks a Run span against the solver's own phase split:
// TTMc + TRSVD + core are timed inside Run, so they cannot exceed the
// span, and what they leave unaccounted (fit tracking, allocation
// sampling) must stay small.
func reconcile(s span, t core.Timings) error {
	dur := s.End - s.Start
	split := t.Total().Seconds()
	if split > dur || dur-split > 0.1*dur+0.02 {
		return fmt.Errorf("%s span %.4fs does not reconcile with ttmc+trsvd+core %.4fs", s.Name, dur, split)
	}
	return nil
}

func solutionOf(r *core.Result) solution { return solution{r.Factors, r.Core, r.Fit} }

// checkCold runs the per-op checks of a cold shared-memory op.
func (b *bench) checkCold(r *core.Result) error {
	if err := checkSolution(b.x, solutionOf(r), threads); err != nil {
		return err
	}
	return b.checkHistory(r.FitHistory)
}

// recordCold checks cold op i and adds its samples. withLatency adds
// the op to op_s_p50 (the cold op is the client's op on cold-4mode).
func (b *bench) recordCold(o *coldOp, err error, i int, withLatency bool) {
	if err == nil {
		err = b.checkCold(o.res)
	}
	b.check("cold op", err)
	if err != nil || i == 0 {
		return
	}
	b.sample(i, o.setup, o.solve, func() {
		b.addE2E(o.setup, o.solve, o.res.Iters, o.res.Fit, o.heapMB, withLatency)
	}, func() {
		b.coldLayers(o)
		b.replay(b.x, o.res.Factors)
	})
}

// sample files measured op i: the untraced run keeps its end-to-end
// samples; the traced run compares its untraced even ops with its
// traced odd ops and takes the layer samples from the traced ones.
func (b *bench) sample(i int, setup, solve time.Duration, e2e, layers func()) {
	tts := (setup + solve).Seconds()
	switch {
	case b.tr == nil:
		e2e()
	case i%2 == 0:
		b.untracedTTS = append(b.untracedTTS, tts)
		b.untracedSolve = append(b.untracedSolve, solve.Seconds())
	default:
		b.tracedTTS = append(b.tracedTTS, tts)
		layers()
	}
}

func (b *bench) addE2E(setup, solve time.Duration, sweeps int, fit, heapMB float64, withLatency bool) {
	b.e2e.add("setup_s", setup.Seconds())
	b.e2e.add("solve_s", solve.Seconds())
	b.e2e.add("time_to_solution_s", (setup + solve).Seconds())
	b.e2e.add("sweep_s", solve.Seconds()/float64(sweeps))
	b.e2e.add("fit", fit)
	b.e2e.add("live_heap_mb", heapMB)
	if withLatency {
		b.e2e.add("op_s_p50", (setup + solve).Seconds())
	}
}

// speedup measures par.speedup_2t: one untraced op with one thread
// against the median untraced solve with the workload's threads. The op
// is checked like any other, which also checks that the fit trajectory
// does not depend on the thread count.
func (b *bench) speedup(solve1 func() (time.Duration, error)) {
	t1, err := solve1()
	b.check("single-thread op", err)
	if err == nil {
		b.layers.add("par.speedup_2t", t1.Seconds()/median(b.untracedSolve))
	}
}

// measure runs op 0 as an unsampled warm-up, then ops 1, 2, … until
// dur has passed and at least n ops were measured.
func (b *bench) measure(n int, dur time.Duration, op func(i int)) {
	op(0)
	deadline := time.Now().Add(dur)
	for i := 1; i <= n || time.Now().Before(deadline); i++ {
		op(i)
	}
}

func (b *bench) runCold() error {
	b.measure(minOps, b.dur, func(i int) {
		tr := b.tracerFor(i)
		o, err := b.runColdOp(b.options(tr != nil), tr)
		b.recordCold(o, err, i, true)
	})
	if b.tr != nil {
		b.speedup(b.singleThreadCold)
	}
	return nil
}

func (b *bench) singleThreadCold() (time.Duration, error) {
	opts := b.options(false)
	opts.Threads = 1
	o, err := b.runColdOp(opts, nil)
	if err != nil {
		return 0, err
	}
	return o.solve, b.checkCold(o.res)
}

// runIngest spends the first half of the measurement time on cold
// set-ups and Runs and the second half streaming deltas into the last
// engine.
func (b *bench) runIngest() error {
	var eng *core.Engine
	b.measure(minOps, b.dur/2, func(i int) {
		tr := b.tracerFor(i)
		o, err := b.runColdOp(b.options(tr != nil), tr)
		b.recordCold(o, err, i, false)
		if err == nil {
			eng = o.eng
		}
	})
	if eng == nil {
		return fmt.Errorf("no cold run succeeded")
	}
	if b.tr != nil {
		b.speedup(b.singleThreadCold)
	}
	stream := newDeltaStream(b.x, b.cfg.Tensor, b.cfg.DeltaNNZ, b.seed)
	deadline := time.Now().Add(b.dur / 2)
	for i := 0; i < minDeltas || time.Now().Before(deadline); i++ {
		delta, err := stream.next()
		if err != nil {
			return err
		}
		if b.tr != nil {
			b.tr.op = 1_000_000 + i
		}
		s := b.tr.begin("core.Engine.Update")
		start := time.Now()
		res, err := eng.Update(delta)
		lat := time.Since(start)
		if err != nil {
			b.tr.end(s, nil)
			b.check("update", err)
			continue
		}
		b.tr.end(s, resultAttrs(res))
		x := eng.Tensor()
		err = stream.checkEqual(x)
		if err == nil {
			err = checkSolution(x, solutionOf(res), threads)
		}
		b.check(fmt.Sprintf("update %d", i), err)
		if err != nil {
			continue
		}
		b.e2e.add("op_s_p50", lat.Seconds())
		b.layers.add("core.update_maintain_s", res.Timings.Symbolic.Seconds())
		b.layers.add("core.update_sweeps", float64(res.UpdateSweeps))
	}
	return nil
}

// distOp is one .tns → partition → distributed solve.
type distOp struct {
	read, partition, setup, solve time.Duration
	heapMB                        float64
	part                          *dist.Partition
	res                           *dist.Result
}

func (b *bench) runDistOp(tr *tracer) (*distOp, error) {
	o := &distOp{}
	base := liveHeapMB()
	root := tr.begin("op.dist")
	x, err := b.distCalls(o, tr)
	tr.end(root, nil)
	if err != nil {
		return nil, err
	}
	o.heapMB = liveHeapMB() - base
	runtime.KeepAlive(x)
	return o, nil
}

func (b *bench) distCalls(o *distOp, tr *tracer) (*tensor.COO, error) {
	start := time.Now()
	s := tr.begin("tensor.ReadTNSFile")
	x, err := tensor.ReadTNSFile(b.tns)
	o.read = time.Since(start)
	tr.end(s, nil)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	s = tr.begin("dist.MakePartition")
	o.part, err = dist.MakePartition(x, b.cfg.Processes, dist.Fine, dist.MethodHypergraph, b.seed)
	o.partition = time.Since(t)
	tr.end(s, nil)
	if err != nil {
		return nil, err
	}
	o.setup = time.Since(start)

	t = time.Now()
	s = tr.begin("dist.DecomposeWorld")
	o.res, err = dist.DecomposeWorld(context.Background(), mpi.NewWorld(b.cfg.Processes), x, o.part,
		dist.Config{Ranks: b.cfg.Ranks, MaxIters: maxIters, Seed: b.seed})
	o.solve = time.Since(t)
	if err != nil {
		tr.end(s, nil)
		return nil, err
	}
	tr.end(s, statsAttrs(o.res))
	return x, nil
}

// statsAttrs are the dist.Stats counters attached to a DecomposeWorld
// span (per-rank times as their maximum).
func statsAttrs(r *dist.Result) map[string]float64 {
	st := r.Stats
	return map[string]float64{
		"sweeps": float64(r.Iters), "fit": r.Fit, "sent_bytes": float64(st.TotalSentBytes()),
		"symbolic_s": dist.MaxDuration(st.SymbolicTime).Seconds(), "ttmc_s": dist.MaxDuration(st.TTMcTime).Seconds(),
		"trsvd_s": dist.MaxDuration(st.TRSVDTime).Seconds(), "core_s": dist.MaxDuration(st.CoreTime).Seconds(),
		"wall_s": dist.MaxDuration(st.RankWall).Seconds(),
	}
}

func (b *bench) runDist() error {
	// The untimed shared-memory reference every distributed fit must
	// match: same initial factors, seed and tolerance.
	ref, err := core.Decompose(b.x, core.Options{
		Ranks: b.cfg.Ranks, MaxIters: maxIters, Seed: b.seed, Threads: threads,
		Initial: dist.DefaultInitial(b.x.Dims, b.cfg.Ranks, b.seed),
	})
	if err != nil {
		return fmt.Errorf("shared-memory reference: %w", err)
	}
	b.measure(minOps, b.dur, func(i int) {
		tr := b.tracerFor(i)
		o, err := b.runDistOp(tr)
		if err == nil {
			err = b.distChecks(o.res, ref.Fit)
		}
		b.check("dist op", err)
		if err != nil || i == 0 {
			return
		}
		b.sample(i, o.setup, o.solve, func() {
			b.addE2E(o.setup, o.solve, o.res.Iters, o.res.Fit, o.heapMB, true)
		}, func() {
			b.distLayers(o)
			b.replay(b.x, o.res.Factors)
		})
	})
	if b.tr != nil {
		b.speedup(func() (time.Duration, error) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			o, err := b.runDistOp(nil)
			if err != nil {
				return 0, err
			}
			return o.solve, b.distChecks(o.res, ref.Fit)
		})
	}
	return nil
}

func (b *bench) distChecks(r *dist.Result, refFit float64) error {
	if err := checkSolution(b.x, solution{r.Factors, r.Core, r.Fit}, threads); err != nil {
		return err
	}
	if d := math.Abs(r.Fit - refFit); d > distTol {
		return fmt.Errorf("distributed fit %.12f, shared-memory fit %.12f", r.Fit, refFit)
	}
	return b.checkHistory(r.FitHistory)
}
