package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/dist"
	"hypertensor/internal/gen"
	"hypertensor/internal/mpi"
	"hypertensor/internal/tensor"
)

// ScalingCell is one (dataset, thread count) measurement of the
// shared-memory scaling sweep.
type ScalingCell struct {
	Threads  int     `json:"threads"`
	SweepSec float64 `json:"sweep_sec"` // wall seconds per HOOI sweep (TTMc+TRSVD+core)
	TTMcSec  float64 `json:"ttmc_sec"`  // TTMc share of the sweep
	TRSVDSec float64 `json:"trsvd_sec"` // TRSVD share of the sweep (the post-dtree hot phase)
	Speedup  float64 `json:"speedup"`   // sweep speedup vs the first thread count
}

// DistCell is one multi-process measurement of a dataset: the
// distributed HOOI over a real TCP mesh of np rank endpoints on
// loopback — the same transport `hooi -dist spawn/tcp` runs across
// processes. NetBytesPerSweep is the total payload volume all ranks
// sent over the run (setup exchange included) divided by the sweep
// count; it is deterministic for a fixed partition, so the CI gate
// applies the standard fractional tolerance. SweepSec is rank 0's wall
// clock per sweep, gated only on matching hosts like the thread cells.
type DistCell struct {
	NP               int   `json:"np"`
	NetBytesPerSweep int64 `json:"net_bytes_per_sweep"`
	// Per-phase breakdown of the sweep's payload (schema 8): the
	// factor-row expand, the fine-grain partial fold, and the TRSVD
	// solver collectives, summed over ranks and modes. Expand and fold
	// ride the sparse point-to-point plans, so together they equal the
	// hypergraph cut model's volume exactly.
	ExpandBytesPerSweep int64 `json:"expand_bytes_per_sweep"`
	FoldBytesPerSweep   int64 `json:"fold_bytes_per_sweep"`
	TRSVDBytesPerSweep  int64 `json:"trsvd_bytes_per_sweep"`
	// BlockExpandFoldBytes is the cut model's expand+fold volume for a
	// block placement of the same tensor at the same rank count — the
	// reference the HP-beats-block CI gate compares the realized
	// hypergraph-partition bytes against. (Model and realized bytes are
	// provably equal, so no second TCP solve is needed.)
	BlockExpandFoldBytes int64   `json:"block_expand_fold_bytes"`
	SweepSec             float64 `json:"sweep_sec"`
}

// CheckpointCell is the crash-recovery measurement of one dataset:
// the serialized checkpoint size (a deterministic function of the
// dims and ranks — factors, core, history, and a fixed-size header —
// so it is machine independent and gated like index bytes), plus the
// wall seconds to encode a snapshot and to decode-and-validate it back
// into a resident engine (host gated like the thread cells). The
// restored engine's result is asserted bitwise equal to the original
// before the cell is reported.
type CheckpointCell struct {
	Bytes      int64   `json:"bytes"`
	WriteSec   float64 `json:"write_sec"`
	RestoreSec float64 `json:"restore_sec"`
}

// ScalingRow is the scaling sweep of one dataset. MaddsPerSweep,
// IndexBytes, and AllocsPerSweep are (near-)machine-independent and
// gated by the CI regression check; the timings are gated only against
// a baseline from the same host class.
type ScalingRow struct {
	Dataset       string `json:"dataset"`
	Order         int    `json:"order"`
	NNZ           int    `json:"nnz"`
	MaddsPerSweep int64  `json:"madds_per_sweep"`
	IndexBytes    int64  `json:"index_bytes"`
	// AllocsPerSweep is the steady-state heap allocation count per HOOI
	// sweep, measured at the single-thread cell (parallel regions there
	// run inline, so the count carries no scheduler or sync.Pool
	// jitter) and minimized over repetitions. It gates the
	// zero-allocation contract of the dense/TRSVD workspaces.
	AllocsPerSweep int64 `json:"allocs_per_sweep"`
	// UpdateSweeps / UpdateMadds gate the resident-engine update path:
	// after the initial convergence a deterministic ~0.6% delta is
	// ingested through Engine.Update, and these record the sweeps it
	// took to re-converge and the TTMc madds actually executed. Both are
	// machine-independent (the update path is bitwise thread- and
	// schedule-invariant), so a regression means the incremental
	// machinery — warm starts, dirty-subtree recompute — degraded.
	UpdateSweeps int           `json:"update_sweeps"`
	UpdateMadds  int64         `json:"update_madds"`
	Fit          float64       `json:"fit"`
	FitInvariant bool          `json:"fit_invariant"` // fits bitwise equal across the thread sweep
	Cells        []ScalingCell `json:"cells"`
	// Dist holds the multi-process transport rows (one per rank count in
	// distNPs), measured over TCP loopback.
	Dist []DistCell `json:"dist,omitempty"`
	// Solver is the TRSVD cell at the sweep's largest thread count:
	// Lanczos madds deterministic and gated, Lanczos seconds recorded,
	// eps_ranks gated with a small slack.
	Solver *SolverCell `json:"solver,omitempty"`
	// Checkpoint is the crash-recovery row (schema 7): checkpoint bytes
	// deterministic and gated, write/restore seconds host-gated.
	Checkpoint *CheckpointCell `json:"checkpoint,omitempty"`
}

// ScalingReport is the machine-readable output of `htbench -scaling
// -json`: the artifact the bench-regression CI job uploads and compares
// against the committed baseline.
type ScalingReport struct {
	Schema     int          `json:"schema"`
	Host       string       `json:"host"` // GOOS/GOARCH/GOMAXPROCS fingerprint for the time gate
	GOMAXPROCS int          `json:"gomaxprocs"`
	Scale      float64      `json:"scale"`
	Iters      int          `json:"iters"`
	Rows       []ScalingRow `json:"rows"`
}

// scalingSchema versions the report layout for the CI comparison.
// Schema 2 added trsvd_sec per cell and allocs_per_sweep per row;
// schema 3 added the update-path gates (update_sweeps, update_madds);
// schema 4 added the multi-process transport rows (dist: np,
// net_bytes_per_sweep, sweep_sec over a TCP loopback mesh); schema 5
// added the per-dataset solver comparison (rand vs lanczos TRSVD
// seconds and madds, |Δfit|, and the eps-selected ranks); schema 6
// added the per-dataset ALTO storage-format cell (alto: index_bytes,
// madds_per_sweep, sweep_sec); schema 7 added the per-dataset
// checkpoint cell (checkpoint: bytes, write_sec, restore_sec); schema 8
// switched the dist cells to hypergraph partitions with the sparse
// point-to-point exchange and added their per-phase breakdown
// (expand/fold/trsvd bytes per sweep) plus the block-placement cut
// volume the HP-beats-block gate compares against; schema 9 dropped the
// ALTO cell and the report's format field when COO became the only
// storage, so the thread cells, madds, and index bytes measure the COO
// flat kernel instead of the CSF fiber walk. The solver cell lost its
// rand_trsvd_sec, rand_madds and rand_dfit fields when fixed-rank TRSVD
// became Lanczos-only; every remaining field kept its meaning, so the
// schema number did not move (decoding ignores the old keys).
const scalingSchema = 9

// distNPs are the multi-process rank counts measured per dataset.
var distNPs = []int{2, 4}

// timeNoiseFloorSec is the smallest absolute sweep-time increase the
// wall-clock gate treats as signal: min-of-Reps measurements of
// sub-100ms sweeps still jitter by >10% on shared hosts, so a
// percentage alone cannot gate them. A regression must exceed both the
// fractional tolerance and this floor to fail the build.
const timeNoiseFloorSec = 0.025

// distTimeNoiseFloorSec is the wall-clock floor for the multi-process
// cells. The TCP loopback mesh runs np rank endpoints (each with its
// own reader/writer goroutines and parallel sweep workers) on one
// host, so even min-of-Reps sweeps jitter far more than the
// shared-memory thread cells; the network-volume gate, which is
// deterministic, carries the regression signal at small scales.
const distTimeNoiseFloorSec = 0.075

// allocNoiseFloor is the absolute allocs-per-sweep slack of the
// allocation gate: GC timing can empty a sync.Pool mid-sweep and force
// a few refills, so counts this close to the baseline are not signal.
const allocNoiseFloor = 64

func hostFingerprint() string {
	fp := fmt.Sprintf("%s/%s/maxprocs=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	if model := cpuModel(); model != "" {
		fp += "/" + model
	}
	return fp
}

// cpuModel best-effort identifies the CPU so the wall-clock gate does
// not arm between same-shape hosts of different speeds (a 4-core dev
// box vs a 4-core CI runner). Empty when the platform does not expose
// it; the fingerprint then degrades to OS/arch/maxprocs.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// Scaling runs the shared-memory thread-scaling sweep on every preset
// dataset: one HOOI measurement per thread count with the default flat
// TTMc, reporting seconds and speedup per sweep, the TTMc share, the
// machine-independent madds-per-sweep count, and whether the fit
// trajectory stayed bitwise identical across the whole thread sweep (it
// must — that is the determinism contract of the runtime).
func Scaling(o Options, w io.Writer) (*ScalingReport, error) {
	o = o.withDefaults()
	rep := &ScalingReport{
		Schema:     scalingSchema,
		Host:       hostFingerprint(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      o.Scale,
		Iters:      o.Iters,
	}
	t := &Table{
		Title:   fmt.Sprintf("Thread scaling: seconds/sweep (host %s)", rep.Host),
		Headers: []string{"Tensor", "#threads", "s/sweep", "ttmc s", "trsvd s", "speedup", "madds/sweep", "allocs/sweep", "upd sweeps", "upd madds", "fit-invariant"},
	}
	for _, name := range []string{"netflix", "nell", "delicious", "flickr"} {
		x, err := dataset(name, o.Scale)
		if err != nil {
			return nil, err
		}
		ranks := ranksFor(x)
		row := ScalingRow{Dataset: name, Order: x.Order(), NNZ: x.NNZ(), FitInvariant: true}
		var fits []float64
		for _, th := range o.Threads {
			var res *core.Result
			var cell ScalingCell
			// Min-of-Reps: the fastest repetition is the one least
			// disturbed by the OS scheduler, which is what a regression
			// gate should compare.
			for rep := 0; rep < o.Reps; rep++ {
				r, err := core.Decompose(x, core.Options{
					Ranks:         ranks,
					MaxIters:      o.Iters,
					Tol:           -1,
					Threads:       th,
					Seed:          o.Seed + 31,
					MeasureAllocs: th == 1,
				})
				if err != nil {
					return nil, fmt.Errorf("%s threads=%d: %w", name, th, err)
				}
				if th == 1 && r.AllocsPerSweep > 0 &&
					(row.AllocsPerSweep == 0 || r.AllocsPerSweep < row.AllocsPerSweep) {
					row.AllocsPerSweep = r.AllocsPerSweep
				}
				it := float64(r.Iters)
				if res == nil || r.Timings.Total().Seconds()/it < cell.SweepSec {
					res = r
					cell = ScalingCell{
						Threads:  th,
						SweepSec: r.Timings.Total().Seconds() / it,
						TTMcSec:  r.Timings.TTMc.Seconds() / it,
						TRSVDSec: r.Timings.TRSVD.Seconds() / it,
					}
				}
			}
			if base := firstCell(row.Cells); base != nil && cell.SweepSec > 0 {
				cell.Speedup = base.SweepSec / cell.SweepSec
			} else if cell.SweepSec > 0 {
				cell.Speedup = 1
			}
			row.Cells = append(row.Cells, cell)
			row.MaddsPerSweep = res.TTMcFlops / int64(res.Iters)
			row.IndexBytes = res.IndexBytes
			row.Fit = res.Fit
			if fits == nil {
				fits = res.FitHistory
			} else {
				for i := range fits {
					if i >= len(res.FitHistory) || res.FitHistory[i] != fits[i] {
						row.FitInvariant = false
					}
				}
			}
		}
		row.UpdateSweeps, row.UpdateMadds, err = measureUpdate(x, ranks, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s update: %w", name, err)
		}
		for _, np := range distNPs {
			cell, err := measureDist(x, ranks, np, o.Iters, o.Reps, o.Seed+31)
			if err != nil {
				return nil, fmt.Errorf("%s np=%d: %w", name, np, err)
			}
			row.Dist = append(row.Dist, cell)
		}
		row.Solver, err = SolverCompare(x, ranks, o.Iters, o.Reps, maxInt(o.Threads), o.Seed+31)
		if err != nil {
			return nil, fmt.Errorf("%s solver comparison: %w", name, err)
		}
		row.Checkpoint, err = measureCheckpoint(x, ranks, o.Iters, o.Reps, maxInt(o.Threads), o.Seed+31)
		if err != nil {
			return nil, fmt.Errorf("%s checkpoint: %w", name, err)
		}
		rep.Rows = append(rep.Rows, row)
		for i, cell := range row.Cells {
			first := ""
			madds := ""
			allocs := ""
			upds := ""
			updm := ""
			inv := ""
			if i == 0 {
				first = name
				madds = humanCount(row.MaddsPerSweep)
				allocs = fmt.Sprintf("%d", row.AllocsPerSweep)
				upds = fmt.Sprintf("%d", row.UpdateSweeps)
				updm = humanCount(row.UpdateMadds)
				inv = fmt.Sprintf("%v", row.FitInvariant)
			}
			t.AddRow(first, fmt.Sprintf("%d", cell.Threads), secs(cell.SweepSec),
				secs(cell.TTMcSec), secs(cell.TRSVDSec), fmt.Sprintf("%.2fx", cell.Speedup), madds, allocs, upds, updm, inv)
		}
	}
	t.Render(w)
	td := &Table{
		Title:   "Multi-process transport (TCP loopback mesh, fine-hp, sparse exchange): network volume and wall clock per sweep",
		Headers: []string{"Tensor", "np", "net B/sweep", "expand B", "fold B", "trsvd B", "block e+f B", "s/sweep"},
	}
	for _, row := range rep.Rows {
		for i, dc := range row.Dist {
			first := ""
			if i == 0 {
				first = row.Dataset
			}
			td.AddRow(first, fmt.Sprintf("%d", dc.NP), fmt.Sprintf("%d", dc.NetBytesPerSweep),
				fmt.Sprintf("%d", dc.ExpandBytesPerSweep), fmt.Sprintf("%d", dc.FoldBytesPerSweep),
				fmt.Sprintf("%d", dc.TRSVDBytesPerSweep), fmt.Sprintf("%d", dc.BlockExpandFoldBytes),
				secs(dc.SweepSec))
		}
	}
	td.Render(w)
	renderSolverTable(rep, w)
	tc := &Table{
		Title:   "Checkpoint/restore (converged engine snapshot)",
		Headers: []string{"Tensor", "ckpt bytes", "write s", "restore s"},
	}
	for _, row := range rep.Rows {
		if row.Checkpoint == nil {
			continue
		}
		tc.AddRow(row.Dataset, fmt.Sprintf("%d", row.Checkpoint.Bytes),
			secs(row.Checkpoint.WriteSec), secs(row.Checkpoint.RestoreSec))
	}
	tc.Render(w)
	return rep, nil
}

// measureCheckpoint converges one engine on the dataset, then measures
// the crash-recovery round trip: Snapshot into a buffer (write), and
// ResumeEngine from those bytes against a fresh plan (restore —
// decode, validate, rebuild the resident engine). Both timings are
// min-of-reps; the byte count is a deterministic function of the dims,
// ranks, and sweep count. The restored engine must reproduce the
// original result bitwise, so the cell also acts as a round-trip
// correctness check inside the bench sweep.
func measureCheckpoint(x *tensor.COO, ranks []int, iters, reps, threads int, seed int64) (*CheckpointCell, error) {
	opts := core.Options{
		Ranks: ranks, MaxIters: iters, Tol: -1, Threads: threads, Seed: seed,
	}
	p, err := core.NewPlan(x, opts)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(p)
	want, err := eng.Run(context.Background())
	if err != nil {
		return nil, err
	}
	cell := &CheckpointCell{}
	var buf bytes.Buffer
	for rep := 0; rep < reps; rep++ {
		buf.Reset()
		t0 := time.Now()
		if err := eng.Snapshot(&buf); err != nil {
			return nil, err
		}
		if s := time.Since(t0).Seconds(); rep == 0 || s < cell.WriteSec {
			cell.WriteSec = s
		}
	}
	cell.Bytes = int64(buf.Len())
	rp, err := core.NewPlan(x, opts)
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		re, err := core.ResumeEngine(rp, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		if s := time.Since(t0).Seconds(); rep == 0 || s < cell.RestoreSec {
			cell.RestoreSec = s
		}
		if rep == 0 {
			// The checkpointed trajectory already ran its MaxIters, so Run
			// returns the restored result without further sweeps.
			res, err := re.Run(context.Background())
			if err != nil {
				return nil, err
			}
			if res.Fit != want.Fit || res.Iters != want.Iters {
				return nil, fmt.Errorf("restored result diverged: fit %.17g/%d sweeps vs %.17g/%d",
					res.Fit, res.Iters, want.Fit, want.Iters)
			}
		}
	}
	return cell, nil
}

func maxInt(vs []int) int {
	m := 1
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// measureDist runs the distributed HOOI over a real TCP mesh on
// loopback — np rank endpoints in this process, each a full TCPWorld
// with its own sockets, exactly the transport the multi-process
// launcher uses — and reports the per-sweep network volume with its
// expand/fold/TRSVD breakdown and rank 0's wall clock, min-of-reps like
// the thread cells (the mesh oversubscribes the host with np ranks'
// worth of goroutines, so single-shot timings are noisy). The
// fine-grain hypergraph partition is the configuration the paper
// argues for, and since schema 8 the sparse exchange realizes its cut
// on the wire; the volume is deterministic and machine independent, so
// it gates in CI, and it is asserted identical across repetitions. The
// cell also carries the cut-model volume of a block placement so the
// comparison gate can check HP actually sends fewer bytes.
func measureDist(x *tensor.COO, ranks []int, np, iters, reps int, seed int64) (DistCell, error) {
	part, err := dist.MakePartition(x, np, dist.Fine, dist.MethodHypergraph, seed)
	if err != nil {
		return DistCell{}, err
	}
	block, err := dist.MakePartition(x, np, dist.Fine, dist.MethodBlock, seed)
	if err != nil {
		return DistCell{}, err
	}
	be, bf := dist.ModeledCommVolume(x, block, ranks)
	cell := DistCell{NP: np, BlockExpandFoldBytes: be + bf}
	for rep := 0; rep < reps; rep++ {
		res, err := distSolveTCP(x, part, ranks, np, iters, seed)
		if err != nil {
			return DistCell{}, err
		}
		net := res.Stats.TotalSentBytes() / int64(res.Iters)
		var expand, fold, trsvd int64
		for n := range res.Stats.Mode {
			for _, ms := range res.Stats.Mode[n] {
				expand += ms.ExpandBytes
				fold += ms.FoldBytes
				trsvd += ms.TRSVDBytes
			}
		}
		if rep == 0 {
			cell.NetBytesPerSweep = net
			cell.ExpandBytesPerSweep = expand
			cell.FoldBytesPerSweep = fold
			cell.TRSVDBytesPerSweep = trsvd
			cell.SweepSec = res.Stats.WallPerIter.Seconds()
			continue
		}
		if net != cell.NetBytesPerSweep {
			return DistCell{}, fmt.Errorf("nondeterministic network volume: %d B/sweep then %d", cell.NetBytesPerSweep, net)
		}
		if s := res.Stats.WallPerIter.Seconds(); s < cell.SweepSec {
			cell.SweepSec = s
		}
	}
	return cell, nil
}

// distSolveTCP builds a fresh np-endpoint TCP loopback mesh and runs
// one distributed solve over it, returning rank 0's result.
func distSolveTCP(x *tensor.COO, part *dist.Partition, ranks []int, np, iters int, seed int64) (*dist.Result, error) {
	lns := make([]net.Listener, np)
	addrs := make([]string, np)
	for r := 0; r < np; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	worlds := make([]*mpi.TCPWorld, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	wg.Add(np)
	for r := 0; r < np; r++ {
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = mpi.ConnectTCP(context.Background(), r, addrs, mpi.TCPOptions{
				Listener: lns[r], Timeout: 2 * time.Minute,
			})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cfg := dist.Config{Ranks: ranks, MaxIters: iters, Tol: -1, Seed: seed}
	results := make([]*dist.Result, np)
	wg.Add(np)
	for r := 0; r < np; r++ {
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = dist.DecomposeWorld(context.Background(), worlds[r], x, part, cfg)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results[0], nil
}

// measureUpdate exercises the resident-engine delta path once per
// dataset: converge, ingest a deterministic ~0.6% delta (half value
// perturbations, half fresh coordinates), and report the re-convergence
// sweeps and executed TTMc madds. It deliberately runs the
// dimension-tree configuration — the one where ingest is incremental in
// every layer (stable-id merge, symbolic splice, per-entry dirty
// recompute) — so a regression in that machinery (e.g. ApplyDelta
// degrading to full-cache recomputes) shows up directly as more madds.
// Single-threaded — the update path is bitwise thread-invariant, so one
// cell suffices — with a convergence tolerance, so the sweep count
// reflects the warm start instead of a fixed iteration budget.
func measureUpdate(x *tensor.COO, ranks []int, seed int64) (int, int64, error) {
	opts := core.Options{
		Ranks: ranks, MaxIters: 30, Tol: 1e-9, Threads: 1,
		TTMc: core.TTMcDTree, Seed: seed + 31,
	}
	p, err := core.NewPlan(x, opts)
	if err != nil {
		return 0, 0, err
	}
	eng := core.NewEngine(p)
	if _, err := eng.Run(context.Background()); err != nil {
		return 0, 0, err
	}
	r, err := eng.Update(gen.Delta(x, 0.003, 0.003, seed+77))
	if err != nil {
		return 0, 0, err
	}
	return r.UpdateSweeps, r.UpdateMadds, nil
}

func firstCell(cells []ScalingCell) *ScalingCell {
	if len(cells) == 0 {
		return nil
	}
	return &cells[0]
}

// WriteJSON writes the report to path (indented, trailing newline).
func (r *ScalingReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadScalingReport loads a report written by WriteJSON.
func ReadScalingReport(path string) (*ScalingReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &ScalingReport{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return r, nil
}

// CompareScaling checks cur against a committed baseline and returns an
// error describing the first regression found:
//
//   - machine-independent gates, always applied: per-dataset TTMc
//     madds-per-sweep, index bytes, and checkpoint bytes must not
//     exceed the baseline by
//     more than tol (fractional, e.g. 0.10), steady-state allocations
//     per sweep must not exceed the baseline by more than tol plus an
//     absolute slack of allocNoiseFloor, and the fit trajectory must
//     have stayed bitwise invariant across the thread sweep;
//   - the wall-clock gate: per-(dataset, threads) seconds-per-sweep
//     must not exceed the baseline by more than timeTol AND by more
//     than the absolute noise floor (timeNoiseFloorSec; the
//     multi-process cells use the larger distTimeNoiseFloorSec, and
//     their network volume gets the machine-independent fractional
//     gate) — applied only when the two reports carry the same host
//     fingerprint, because a baseline measured on different hardware
//     says nothing about this machine's absolute times (the skip is
//     reported on w);
//   - the partition-quality gate: summed across datasets, the np=4
//     hypergraph placements' realized expand+fold bytes per sweep must
//     stay below the block placements' cut-model volume (aggregate,
//     because one synthetic dataset's sorted nonzero order gives block
//     placement near-optimal locality; see the gate's comment).
//
// The configurations (scale, iters, schema) must match, so a
// CI job cannot silently compare sweeps of different shapes.
func CompareScaling(base, cur *ScalingReport, tol, timeTol float64, w io.Writer) error {
	if base.Schema != cur.Schema {
		return fmt.Errorf("bench: baseline schema %d vs current %d", base.Schema, cur.Schema)
	}
	if base.Scale != cur.Scale || base.Iters != cur.Iters {
		return fmt.Errorf("bench: baseline config (scale=%g iters=%d) does not match current (scale=%g iters=%d)",
			base.Scale, base.Iters, cur.Scale, cur.Iters)
	}
	timeGate := base.Host == cur.Host
	if !timeGate {
		fmt.Fprintf(w, "bench: baseline host %q != current %q; wall-clock gate skipped (madds/bytes/determinism gates still apply)\n",
			base.Host, cur.Host)
	}
	baseRows := map[string]*ScalingRow{}
	for i := range base.Rows {
		baseRows[base.Rows[i].Dataset] = &base.Rows[i]
	}
	// Accumulated over every np=4 dist cell for the aggregate
	// HP-beats-block gate applied after the per-dataset loop.
	var hpNp4Bytes, blockNp4Bytes int64
	for i := range cur.Rows {
		c := &cur.Rows[i]
		b, ok := baseRows[c.Dataset]
		if !ok {
			continue // new dataset: nothing to regress against
		}
		delete(baseRows, c.Dataset)
		curCells := map[int]bool{}
		for _, cell := range c.Cells {
			curCells[cell.Threads] = true
		}
		for _, bc := range b.Cells {
			if !curCells[bc.Threads] {
				return fmt.Errorf("bench: %s is missing the %d-thread cell present in the baseline (run the same -threads sweep)",
					c.Dataset, bc.Threads)
			}
		}
		if !c.FitInvariant {
			return fmt.Errorf("bench: %s fit trajectory is no longer bitwise invariant across the thread sweep", c.Dataset)
		}
		if exceeds(float64(c.MaddsPerSweep), float64(b.MaddsPerSweep), tol) {
			return fmt.Errorf("bench: %s TTMc madds/sweep regressed %d -> %d (> %.0f%%)",
				c.Dataset, b.MaddsPerSweep, c.MaddsPerSweep, tol*100)
		}
		if exceeds(float64(c.IndexBytes), float64(b.IndexBytes), tol) {
			return fmt.Errorf("bench: %s index bytes regressed %d -> %d (> %.0f%%)",
				c.Dataset, b.IndexBytes, c.IndexBytes, tol*100)
		}
		// The allocation gate covers the steady-state zero-allocation
		// contract of the sweep workspaces. A small absolute slack
		// absorbs GC-driven sync.Pool refills; beyond that, a growing
		// count means a kernel started allocating per call again. A
		// current report that stopped measuring the metric (no 1-thread
		// cell in the sweep) must fail rather than trivially pass.
		if b.AllocsPerSweep > 0 && c.AllocsPerSweep <= 0 {
			return fmt.Errorf("bench: %s no longer reports allocs/sweep (baseline %d); run the sweep with a 1-thread cell",
				c.Dataset, b.AllocsPerSweep)
		}
		if b.AllocsPerSweep > 0 && c.AllocsPerSweep > int64(float64(b.AllocsPerSweep)*(1+tol))+allocNoiseFloor {
			return fmt.Errorf("bench: %s steady-state allocs/sweep regressed %d -> %d (> %.0f%% + %d)",
				c.Dataset, b.AllocsPerSweep, c.AllocsPerSweep, tol*100, allocNoiseFloor)
		}
		// The update-path gates cover the resident-engine delta
		// machinery. Both metrics are deterministic (bitwise thread- and
		// schedule-invariant), so sweeps get no tolerance at all — more
		// sweeps to re-converge means the warm start degraded — and
		// madds get the standard fractional one.
		if b.UpdateSweeps > 0 && c.UpdateSweeps <= 0 {
			return fmt.Errorf("bench: %s no longer reports the update-path metrics (baseline %d sweeps)",
				c.Dataset, b.UpdateSweeps)
		}
		if b.UpdateSweeps > 0 && c.UpdateSweeps > b.UpdateSweeps {
			return fmt.Errorf("bench: %s update re-convergence regressed %d -> %d sweeps",
				c.Dataset, b.UpdateSweeps, c.UpdateSweeps)
		}
		if b.UpdateMadds > 0 && exceeds(float64(c.UpdateMadds), float64(b.UpdateMadds), tol) {
			return fmt.Errorf("bench: %s update-path TTMc madds regressed %d -> %d (> %.0f%%)",
				c.Dataset, b.UpdateMadds, c.UpdateMadds, tol*100)
		}
		// The multi-process transport gates: every rank count in the
		// baseline must still be measured, network volume is deterministic
		// and gets the fractional tolerance, wall clock follows the same
		// host-fingerprint + noise-floor rules as the thread cells.
		curDist := map[int]bool{}
		for _, dc := range c.Dist {
			curDist[dc.NP] = true
		}
		for _, bd := range b.Dist {
			if !curDist[bd.NP] {
				return fmt.Errorf("bench: %s is missing the np=%d multi-process cell present in the baseline",
					c.Dataset, bd.NP)
			}
		}
		baseDist := map[int]DistCell{}
		for _, dc := range b.Dist {
			baseDist[dc.NP] = dc
		}
		for _, dc := range c.Dist {
			bd, ok := baseDist[dc.NP]
			if !ok {
				continue
			}
			if exceeds(float64(dc.NetBytesPerSweep), float64(bd.NetBytesPerSweep), tol) {
				return fmt.Errorf("bench: %s np=%d net bytes/sweep regressed %d -> %d (> %.0f%%)",
					c.Dataset, dc.NP, bd.NetBytesPerSweep, dc.NetBytesPerSweep, tol*100)
			}
			// Feed the aggregate HP-beats-block gate below. A current
			// report without the breakdown (pre-schema-8) must fail
			// rather than trivially pass.
			if dc.NP == 4 {
				if dc.BlockExpandFoldBytes <= 0 {
					return fmt.Errorf("bench: %s np=4 cell carries no block-placement comm volume; regenerate the report at schema >= 8",
						c.Dataset)
				}
				hpNp4Bytes += dc.ExpandBytesPerSweep + dc.FoldBytesPerSweep
				blockNp4Bytes += dc.BlockExpandFoldBytes
			}
			if timeGate && timeTol > 0 && dc.SweepSec-bd.SweepSec >= distTimeNoiseFloorSec &&
				exceeds(dc.SweepSec, bd.SweepSec, timeTol) {
				return fmt.Errorf("bench: %s np=%d sweep time regressed %.4fs -> %.4fs (> %.0f%%)",
					c.Dataset, dc.NP, bd.SweepSec, dc.SweepSec, timeTol*100)
			}
		}
		// The TRSVD gates: Lanczos madds are deterministic operation
		// counts (fractional tolerance), and the eps-selected ranks may
		// move by at most epsRankSlack per mode.
		if b.Solver != nil {
			if c.Solver == nil {
				return fmt.Errorf("bench: %s no longer reports the solver comparison present in the baseline", c.Dataset)
			}
			if exceeds(float64(c.Solver.LanczosMadds), float64(b.Solver.LanczosMadds), tol) {
				return fmt.Errorf("bench: %s Lanczos-solver madds regressed %d -> %d (> %.0f%%)",
					c.Dataset, b.Solver.LanczosMadds, c.Solver.LanczosMadds, tol*100)
			}
			if c.Solver.Eps == b.Solver.Eps {
				if len(c.Solver.EpsRanks) != len(b.Solver.EpsRanks) {
					return fmt.Errorf("bench: %s eps-selected ranks changed arity %v -> %v",
						c.Dataset, b.Solver.EpsRanks, c.Solver.EpsRanks)
				}
				for n := range c.Solver.EpsRanks {
					d := c.Solver.EpsRanks[n] - b.Solver.EpsRanks[n]
					if d < -epsRankSlack || d > epsRankSlack {
						return fmt.Errorf("bench: %s eps-selected ranks drifted %v -> %v (> ±%d in mode %d)",
							c.Dataset, b.Solver.EpsRanks, c.Solver.EpsRanks, epsRankSlack, n+1)
					}
				}
			}
		}
		// The checkpoint gates (schema 7): the serialized size is a
		// deterministic function of the dims, ranks, and sweep count
		// (fractional tolerance — growth means the format or the captured
		// state bloated); the write/restore seconds follow the host rules.
		if b.Checkpoint != nil {
			if c.Checkpoint == nil {
				return fmt.Errorf("bench: %s no longer reports the checkpoint cell present in the baseline", c.Dataset)
			}
			if exceeds(float64(c.Checkpoint.Bytes), float64(b.Checkpoint.Bytes), tol) {
				return fmt.Errorf("bench: %s checkpoint bytes regressed %d -> %d (> %.0f%%)",
					c.Dataset, b.Checkpoint.Bytes, c.Checkpoint.Bytes, tol*100)
			}
			if timeGate && timeTol > 0 && c.Checkpoint.WriteSec-b.Checkpoint.WriteSec >= timeNoiseFloorSec &&
				exceeds(c.Checkpoint.WriteSec, b.Checkpoint.WriteSec, timeTol) {
				return fmt.Errorf("bench: %s checkpoint write time regressed %.4fs -> %.4fs (> %.0f%%)",
					c.Dataset, b.Checkpoint.WriteSec, c.Checkpoint.WriteSec, timeTol*100)
			}
			if timeGate && timeTol > 0 && c.Checkpoint.RestoreSec-b.Checkpoint.RestoreSec >= timeNoiseFloorSec &&
				exceeds(c.Checkpoint.RestoreSec, b.Checkpoint.RestoreSec, timeTol) {
				return fmt.Errorf("bench: %s checkpoint restore time regressed %.4fs -> %.4fs (> %.0f%%)",
					c.Dataset, b.Checkpoint.RestoreSec, c.Checkpoint.RestoreSec, timeTol*100)
			}
		}
		if !timeGate || timeTol <= 0 {
			continue
		}
		baseCells := map[int]ScalingCell{}
		for _, cell := range b.Cells {
			baseCells[cell.Threads] = cell
		}
		for _, cell := range c.Cells {
			bc, ok := baseCells[cell.Threads]
			if !ok {
				continue
			}
			// Absolute deltas below the noise floor are indistinguishable
			// from scheduler jitter even under min-of-Reps; sweeps must
			// be run at a scale where a real regression clears it.
			if cell.SweepSec-bc.SweepSec < timeNoiseFloorSec {
				continue
			}
			if exceeds(cell.SweepSec, bc.SweepSec, timeTol) {
				return fmt.Errorf("bench: %s @%d threads sweep time regressed %.4fs -> %.4fs (> %.0f%%)",
					c.Dataset, cell.Threads, bc.SweepSec, cell.SweepSec, timeTol*100)
			}
		}
	}
	for name := range baseRows {
		return fmt.Errorf("bench: baseline dataset %q missing from current report", name)
	}
	// Aggregate HP-beats-block gate. The claim is summed across datasets
	// rather than applied per dataset because a tensor whose nonzero
	// order already has near-optimal locality (the sorted synthetic
	// netflix) can hand the block placement a smaller cut than the
	// multilevel partitioner finds; the paper's claim is about overall
	// communication volume, and the hypergraph placements must win it.
	if blockNp4Bytes > 0 && hpNp4Bytes >= blockNp4Bytes {
		return fmt.Errorf("bench: np=4 hypergraph partitions send %d expand+fold B/sweep across datasets, not below block placements' %d",
			hpNp4Bytes, blockNp4Bytes)
	}
	return nil
}

func exceeds(cur, base, tol float64) bool {
	return cur > base*(1+tol)
}
