package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/core"
	"hypertensor/internal/dense"
	"hypertensor/internal/mpi"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// Config configures a distributed decomposition.
type Config struct {
	// Ranks holds the target Tucker rank per mode. Required.
	Ranks []int
	// MaxIters caps the ALS sweeps. 0 selects 50; negative is an
	// error.
	MaxIters int
	// Tol stops when the fit improves by less than this between sweeps.
	// 0 selects 1e-5; negative disables the test.
	Tol float64
	// Seed makes the decomposition deterministic.
	Seed int64
	// Initial optionally supplies explicit initial factor matrices;
	// when nil, DefaultInitial(x.Dims, Ranks, Seed) is used.
	Initial []*dense.Matrix
	// SVD selects the per-mode solver (default Lanczos). The randomized
	// solver's decisions are all made on replicated b×b data after fixed
	// rank-order reductions, so ranks with zero owned rows stay in
	// lockstep with the rest of the world.
	SVD core.SVDMethod
	// CheckpointDir enables coordinated sweep-boundary checkpoints: rank
	// 0 writes one atomically (write-temp, fsync, rename) every
	// CheckpointEvery sweeps, after the sweep's core allreduce — at
	// which point factors, core, and fit are replicated bitwise on every
	// rank, so the single rank-0 file is world-consistent by
	// construction. On startup, if the directory holds a usable
	// checkpoint that matches this configuration, every rank resumes
	// from it and the fit trajectory continues bitwise identically to an
	// uninterrupted run. In multi-process worlds the directory must be
	// reachable by every process (the spawn launcher runs all ranks on
	// one host, so a local path works).
	CheckpointDir string
	// CheckpointEvery is the sweep interval between checkpoints.
	// 0 selects 1 (every sweep) when CheckpointDir is set.
	CheckpointEvery int
	// Fault, when non-nil, is called by every rank at the top of each
	// sweep with (rank, 1-based sweep). It exists for fault injection —
	// mpi.FaultConfig.SweepHook panics a chosen rank at a chosen sweep
	// so recovery paths can be tested deterministically. Production runs
	// leave it nil.
	Fault func(rank, sweep int)
	// Exchange selects how factor rows and fold partials move between
	// ranks. The zero value ExchangeSparse uses precomputed
	// point-to-point communication plans: each rank sends exactly the
	// rows its peers' nonzeros reference, to exactly those peers
	// (Algorithm 4's expand/fold realized sparsely). ExchangeDense uses
	// the dense AllGatherV/AllToAllV collectives instead — every rank
	// receives every factor row. Both paths produce bitwise-identical
	// fits, factors, and cores; the dense path survives as the
	// equivalence oracle the tests and the CI comparison run against.
	Exchange ExchangeKind
}

// ExchangeKind selects the communication strategy of the distributed
// sweep's expand and fold phases.
type ExchangeKind int

const (
	// ExchangeSparse (the default) moves rows point-to-point along the
	// precomputed per-mode communication plans.
	ExchangeSparse ExchangeKind = iota
	// ExchangeDense replicates every factor via dense collectives, the
	// pre-plan behavior.
	ExchangeDense
)

// String renders the flag spelling ("sparse" or "dense").
func (e ExchangeKind) String() string {
	if e == ExchangeDense {
		return "dense"
	}
	return "sparse"
}

// ParseExchange maps the -exchange flag spelling to an ExchangeKind.
func ParseExchange(s string) (ExchangeKind, error) {
	switch s {
	case "sparse", "":
		return ExchangeSparse, nil
	case "dense":
		return ExchangeDense, nil
	}
	return ExchangeSparse, fmt.Errorf("dist: unknown exchange %q (want sparse or dense)", s)
}

// ModeStats carries one rank's per-mode work and communication counts
// for a single HOOI iteration (the paper's Table III statistics). The
// counts are exchanged between ranks at the end of a run, so every
// rank's Stats — including a single process of a multi-process TCP
// world — holds the measurements of all ranks.
type ModeStats struct {
	// WTTMc is the TTMc multiply-add count: local nonzeros times the
	// TTMc row size.
	WTTMc int64
	// WTRSVD is the per-operator-pass TRSVD work: owned rows times the
	// row size.
	WTRSVD int64
	// ExpandBytes, FoldBytes, and TRSVDBytes break the mode's sent
	// payload down by communication phase, averaged over iterations:
	// the factor-row expand (Algorithm 4's distribution of updated
	// rows), the Y-row partial fold (fine grain only; coarse rows are
	// complete locally), and the TRSVD solver's collectives (the
	// AllReduces of the row-distributed Lanczos/randomized passes).
	ExpandBytes int64
	FoldBytes   int64
	TRSVDBytes  int64
}

// CommBytes is the mode's total sent payload across all three phases —
// the single figure the paper's Table III reports.
func (m ModeStats) CommBytes() int64 {
	return m.ExpandBytes + m.FoldBytes + m.TRSVDBytes
}

// Stats aggregates per-rank measurements of a distributed run. All
// slices are indexed by rank and filled on every rank (the values are
// exchanged with one extra allgather after the solve, identically on
// both transports so byte accounting stays transport-invariant).
type Stats struct {
	// P is the number of ranks.
	P int
	// WallPerIter is rank 0's wall-clock time per HOOI sweep (host
	// dependent: simulated ranks time-share the host's cores).
	WallPerIter time.Duration
	// RankWall[r] is rank r's total wall-clock time across all sweeps
	// (barrier-to-barrier, so it includes waiting on stragglers).
	RankWall []time.Duration
	// SentBytes[r] is the payload bytes rank r sent during the solve
	// (8 per float64, 4 per int32, self-sends free; identical between
	// the simulated and TCP transports, and excluding this stats
	// exchange itself).
	SentBytes []int64
	// Per-rank phase times, accumulated over all sweeps.
	SymbolicTime []time.Duration
	TTMcTime     []time.Duration
	TRSVDTime    []time.Duration
	CoreTime     []time.Duration
	// Mode[n][r] is rank r's per-iteration statistics in mode n.
	Mode [][]ModeStats
}

// TotalSentBytes sums the per-rank payload bytes of the whole world.
func (s *Stats) TotalSentBytes() int64 {
	var sum int64
	for _, b := range s.SentBytes {
		sum += b
	}
	return sum
}

// Result is a distributed Tucker decomposition with per-rank statistics.
type Result struct {
	// Factors are the orthonormal factor matrices (identical on every
	// rank by construction).
	Factors []*dense.Matrix
	// Core is the dense core tensor.
	Core *tensor.Dense
	// Fit is 1 - ||X - X̂||/||X|| after the final sweep.
	Fit float64
	// FitHistory records the fit after every sweep.
	FitHistory []float64
	// Iters is the number of completed sweeps.
	Iters int
	// Stats carries the per-rank measurements.
	Stats *Stats
}

func (cfg Config) validate(x *tensor.COO, part *Partition) error {
	if x.NNZ() == 0 {
		return fmt.Errorf("dist: cannot decompose an empty tensor")
	}
	if part == nil || part.P < 1 || len(part.RowOwner) != x.Order() {
		return fmt.Errorf("dist: partition does not match tensor")
	}
	if len(cfg.Ranks) != x.Order() {
		return fmt.Errorf("dist: %d ranks for an order-%d tensor", len(cfg.Ranks), x.Order())
	}
	if cfg.MaxIters < 0 {
		return fmt.Errorf("dist: MaxIters %d is negative", cfg.MaxIters)
	}
	for n, r := range cfg.Ranks {
		if r < 1 || r > x.Dims[n] {
			return fmt.Errorf("dist: rank %d invalid for mode %d (size %d)", r, n, x.Dims[n])
		}
		other := 1
		for t, rt := range cfg.Ranks {
			if t != n {
				other *= rt
			}
		}
		if r > other {
			return fmt.Errorf("dist: rank %d in mode %d exceeds product of other ranks (%d)", r, n, other)
		}
	}
	return nil
}

// Decompose runs the distributed-memory HOOI (Algorithm 4) over
// simulated in-process ranks. It is DecomposeWorld on a fresh simulated
// world with a background context.
func Decompose(x *tensor.COO, part *Partition, cfg Config) (*Result, error) {
	return DecomposeWorld(context.Background(), mpi.NewWorld(part.P), x, part, cfg)
}

// DecomposeWorld runs the distributed-memory HOOI (Algorithm 4) over
// the given world — either a simulated mpi.World (every rank a
// goroutine of this process) or an mpi.TCPWorld (this process is one
// rank of a multi-process group; every process must call DecomposeWorld
// with the same tensor, partition, and config). The result is
// deterministic for a fixed partition and config: every collective
// accumulates in fixed rank order, so all ranks observe
// bitwise-identical factor iterates on both transports. Cancelling ctx
// aborts a blocked world with an error instead of hanging.
func DecomposeWorld(ctx context.Context, world mpi.Runner, x *tensor.COO, part *Partition, cfg Config) (*Result, error) {
	if err := cfg.validate(x, part); err != nil {
		return nil, err
	}
	if world.Size() != part.P {
		return nil, fmt.Errorf("dist: world has %d ranks but partition wants %d", world.Size(), part.P)
	}
	order := x.Order()
	p := part.P
	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = 50
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-5
	}

	gsym := symbolic.Build(x, 0)
	normX := x.Norm(0)
	initial := cfg.Initial
	if initial == nil {
		initial = DefaultInitial(x.Dims, cfg.Ranks, cfg.Seed)
	}

	// Resume from the newest usable checkpoint, if any. Every process
	// loads the same file independently (LoadLatest skips torn or
	// corrupt files), so all ranks restart from identical state without
	// a broadcast. An empty or missing directory is a fresh start.
	resume, err := loadDistResume(cfg, x.Dims, normX)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		initial = resume.Factors
	}

	// allOwned[n][r] lists the mode-n slices owned by rank r, ascending.
	// It is derived from the shared partition, so every rank can compute
	// factor-row placement without extra communication.
	allOwned := make([][][]int32, order)
	for n := 0; n < order; n++ {
		allOwned[n] = make([][]int32, p)
		for _, row := range gsym.Modes[n].Rows {
			r := part.RowOwner[n][row]
			allOwned[n][r] = append(allOwned[n][r], row)
		}
	}

	// Each rank assembles its own complete Result (fit, factors, core
	// are replicated by construction; stats are exchanged), so the body
	// shares nothing across ranks — a requirement for the TCP world,
	// where only the local rank runs in this process.
	results := make([]*Result, p)
	err = world.RunContext(ctx, func(c *mpi.Comm) {
		me := c.Rank()
		setupStart := time.Now()
		rk := newRankState(c, x, part, gsym, allOwned, cfg.Ranks, initial, cfg.Seed)
		rk.svd = cfg.SVD
		rk.exchange = cfg.Exchange
		symTime := time.Since(setupStart)

		c.Barrier()
		wallStart := time.Now()

		// Every rank tracks the (replicated) fit with the shared tracker
		// so the stopping decision stays in lockstep.
		fits := core.NewFitTracker(normX, tol)
		res := &Result{}
		startIter := 0
		resumedSweeps := 0
		if resume != nil {
			// newRankState cloned the checkpointed factors in; restore
			// the rest of the sweep state so the next mode solve draws
			// exactly the seed the uninterrupted run would have drawn.
			rk.state.Step = resume.Step
			fits.Restore(resume.FitHistory)
			startIter = resume.Sweep
			resumedSweeps = resume.Sweep
			res.FitHistory = append(res.FitHistory, resume.FitHistory...)
			res.Core = resume.Core
			if n := len(resume.FitHistory); n > 0 {
				res.Fit = resume.FitHistory[n-1]
			}
			if fits.Stopped() {
				// The checkpointed run had already converged; resuming
				// must not add sweeps the uninterrupted run never took.
				startIter = maxIters
			}
		}
		ckptEvery := cfg.CheckpointEvery
		if ckptEvery <= 0 {
			ckptEvery = 1
		}
		var ttmcTime, trsvdTime, coreTime time.Duration
		iters := resumedSweeps
		for iter := startIter; iter < maxIters; iter++ {
			if cfg.Fault != nil {
				cfg.Fault(me, iter+1)
			}
			for n := 0; n < order; n++ {
				t0 := time.Now()
				rk.ttmc(n)
				ttmcTime += time.Since(t0)

				t0 = time.Now()
				rk.trsvd(n)
				trsvdTime += time.Since(t0)
			}
			t0 := time.Now()
			g := rk.core()
			coreTime += time.Since(t0)

			fit, stop := fits.Record(g.Norm())
			iters = iter + 1
			res.FitHistory = append(res.FitHistory, fit)
			res.Fit = fit
			res.Core = g

			if cfg.CheckpointDir != "" && (iter+1)%ckptEvery == 0 {
				// The core allreduce above is the sweep's closing
				// barrier: once it returns, core and fit are replicated
				// bitwise on every rank, and the assembly below (a
				// collective every rank enters; a no-op on the dense
				// path, which keeps factors replicated throughout)
				// completes rank 0's factors, so its view is the
				// world's view. The trailing barrier keeps ranks from
				// running into the next sweep (and its injected faults)
				// before the checkpoint is durable.
				rk.assembleFactors()
				if me == 0 {
					st := &checkpoint.State{
						Sweep:       iter + 1,
						Step:        rk.state.Step,
						SeedBase:    cfg.Seed,
						NormX:       normX,
						Factors:     rk.factors,
						Core:        g,
						FitHistory:  fits.History,
						ChosenRanks: cfg.Ranks,
					}
					if _, err := checkpoint.Save(cfg.CheckpointDir, st); err != nil {
						panic(fmt.Sprintf("dist: checkpoint at sweep %d: %v", iter+1, err))
					}
				}
				c.Barrier()
			}
			if stop {
				break
			}
		}

		// The Result contract replicates the complete factors on every
		// rank; under the sparse exchange each rank holds only the rows
		// its plans reference, so one final assembly (per run, not per
		// sweep) completes them. It happens before the wall/bytes
		// snapshot, so its cost is accounted, not hidden.
		rk.assembleFactors()
		c.Barrier()
		wall := time.Since(wallStart)
		res.Iters = iters
		res.Factors = rk.factors

		// Exchange the per-rank measurements so every rank's Stats is
		// complete. The gather happens on both transports (keeping byte
		// accounting identical) and after the BytesSent snapshot (so the
		// exchange doesn't count itself).
		// Stats cover only the sweeps this process executed: a resumed
		// run's measurements start at the checkpointed sweep.
		divIters := int64(iters - resumedSweeps)
		if divIters < 1 {
			divIters = 1
		}
		local := make([]float64, statsFixedFields+statsModeFields*order)
		local[0] = symTime.Seconds()
		local[1] = ttmcTime.Seconds()
		local[2] = trsvdTime.Seconds()
		local[3] = coreTime.Seconds()
		local[4] = wall.Seconds()
		local[5] = float64(c.BytesSent())
		for n := 0; n < order; n++ {
			m := &rk.modes[n]
			f := local[statsFixedFields+statsModeFields*n:]
			f[0] = float64(m.wTTMc)
			f[1] = float64(m.wTRSVD)
			f[2] = float64(m.expandBytes / divIters)
			f[3] = float64(m.foldBytes / divIters)
			f[4] = float64(m.trsvdBytes / divIters)
		}
		res.Stats = decodeStats(c.AllGatherV(local), p, order, iters-resumedSweeps)
		results[me] = res
	})
	if err != nil {
		return nil, err
	}
	// The simulated world fills every slot; a TCP world fills only the
	// local rank's. Results are replicated, so any filled slot serves.
	for _, res := range results {
		if res != nil {
			return res, nil
		}
	}
	return nil, fmt.Errorf("dist: no rank produced a result")
}

// loadDistResume fetches and validates the newest usable checkpoint
// for a distributed run. It returns (nil, nil) when the feature is off
// or the directory holds nothing usable (fresh start), a typed
// checkpoint.ErrMismatch when the checkpoint belongs to a different
// problem or configuration, and the state otherwise.
func loadDistResume(cfg Config, dims []int, normX float64) (*checkpoint.State, error) {
	if cfg.CheckpointDir == "" {
		return nil, nil
	}
	st, path, err := checkpoint.LoadLatest(cfg.CheckpointDir)
	if errors.Is(err, checkpoint.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: load checkpoint: %w", err)
	}
	if verr := validateDistResume(st, cfg, dims, normX); verr != nil {
		return nil, fmt.Errorf("dist: checkpoint %s: %w", path, verr)
	}
	return st, nil
}

// validateDistResume rejects checkpoints from a different tensor, rank
// target, or seed — resuming across any of those would silently produce
// a trajectory no uninterrupted run could have taken. All failures wrap
// checkpoint.ErrMismatch.
func validateDistResume(st *checkpoint.State, cfg Config, dims []int, normX float64) error {
	if len(st.Factors) != len(dims) {
		return fmt.Errorf("%w: checkpoint has %d modes, tensor has %d", checkpoint.ErrMismatch, len(st.Factors), len(dims))
	}
	for n, f := range st.Factors {
		if f.Rows != dims[n] {
			return fmt.Errorf("%w: mode-%d factor has %d rows, tensor dimension is %d", checkpoint.ErrMismatch, n, f.Rows, dims[n])
		}
		if f.Cols != cfg.Ranks[n] {
			return fmt.Errorf("%w: mode-%d factor has %d columns, configured rank is %d", checkpoint.ErrMismatch, n, f.Cols, cfg.Ranks[n])
		}
	}
	if st.SeedBase != cfg.Seed {
		return fmt.Errorf("%w: checkpoint seed %d, configured seed %d", checkpoint.ErrMismatch, st.SeedBase, cfg.Seed)
	}
	if math.Float64bits(st.NormX) != math.Float64bits(normX) {
		return fmt.Errorf("%w: checkpoint tensor norm %v, this tensor has %v", checkpoint.ErrMismatch, st.NormX, normX)
	}
	return nil
}

// statsFixedFields is the number of scalar fields preceding the
// per-mode groups in the gathered stats payload; statsModeFields is the
// size of each per-mode group.
const (
	statsFixedFields = 6
	statsModeFields  = 5
)

// decodeStats unpacks the allgathered per-rank measurement payloads.
func decodeStats(all [][]float64, p, order, iters int) *Stats {
	st := &Stats{
		P:            p,
		RankWall:     make([]time.Duration, p),
		SentBytes:    make([]int64, p),
		SymbolicTime: make([]time.Duration, p),
		TTMcTime:     make([]time.Duration, p),
		TRSVDTime:    make([]time.Duration, p),
		CoreTime:     make([]time.Duration, p),
		Mode:         make([][]ModeStats, order),
	}
	for n := range st.Mode {
		st.Mode[n] = make([]ModeStats, p)
	}
	for r := 0; r < p; r++ {
		v := all[r]
		st.SymbolicTime[r] = secDuration(v[0])
		st.TTMcTime[r] = secDuration(v[1])
		st.TRSVDTime[r] = secDuration(v[2])
		st.CoreTime[r] = secDuration(v[3])
		st.RankWall[r] = secDuration(v[4])
		st.SentBytes[r] = int64(v[5])
		for n := 0; n < order; n++ {
			ms := &st.Mode[n][r]
			f := v[statsFixedFields+statsModeFields*n:]
			ms.WTTMc = int64(f[0])
			ms.WTRSVD = int64(f[1])
			ms.ExpandBytes = int64(f[2])
			ms.FoldBytes = int64(f[3])
			ms.TRSVDBytes = int64(f[4])
		}
	}
	if iters > 0 {
		st.WallPerIter = st.RankWall[0] / time.Duration(iters)
	}
	return st
}

func secDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// rankState is the per-rank working set of the SPMD HOOI body. Its
// numeric iteration state — factors, per-mode TRSVD workspaces, the
// seed schedule — is the same core.SweepState the shared-memory Engine
// holds (each rank is its own goroutine, so per-rank state is required,
// not shared); factors aliases state.Factors.
type rankState struct {
	c        *mpi.Comm
	me, p    int
	dims     []int
	ranks    []int
	svd      core.SVDMethod
	exchange ExchangeKind
	part     *Partition
	xloc     *tensor.COO
	lsym     *symbolic.Structure
	state    *core.SweepState
	factors  []*dense.Matrix
	modes    []rankMode
}

// rankMode is one mode's precomputed plans and buffers.
type rankMode struct {
	owned    []int32 // global slice ids owned by this rank, ascending
	ownedPos []int32 // position of each owned slice in lsym's row list
	gids     []int64 // global compact row index of each owned slice
	allOwned [][]int32
	// Fine-grain fold plans: sendDst[d] lists local (lsym) row positions
	// whose partials go to rank d; recvSrc[s] lists owned-row indices
	// that receive a partial from rank s. Both ascend in global id, so
	// sender and receiver agree on buffer order with no index traffic.
	sendDst [][]int32
	recvSrc [][]int32
	// foldSrc lists the ranks with a non-empty recvSrc — the fold's
	// actual sharers, which is all the sparse exchange talks to.
	foldSrc []int
	// Expand plan (see expandPlan): expSend[d] lists indices into owned
	// whose updated factor rows rank d's nonzeros reference; expRecv[s]
	// lists the global row ids arriving from owner s. expSrc lists the
	// ranks with a non-empty expRecv.
	expSend [][]int32
	expRecv [][]int32
	expSrc  []int
	yloc    *dense.Matrix // fine: local partial rows
	yOwn    *dense.Matrix // fully folded owned rows
	wTTMc   int64
	wTRSVD  int64
	// Per-phase sent-payload counters, accumulated across sweeps.
	expandBytes int64
	foldBytes   int64
	trsvdBytes  int64
}

func newRankState(c *mpi.Comm, x *tensor.COO, part *Partition, gsym *symbolic.Structure, allOwned [][][]int32, ranks []int, initial []*dense.Matrix, seed int64) *rankState {
	me, p := c.Rank(), c.Size()
	order := x.Order()
	rk := &rankState{
		c: c, me: me, p: p,
		dims: x.Dims, ranks: ranks, part: part,
		modes: make([]rankMode, order),
	}
	cloned := make([]*dense.Matrix, order)
	for n := range cloned {
		cloned[n] = initial[n].Clone()
	}
	rk.state = core.NewSweepState(cloned, seed)
	rk.factors = rk.state.Factors

	// Local tensor: owned nonzeros (fine) or every nonzero of an owned
	// slice in any mode (coarse).
	var ids []int32
	if part.Grain == Fine {
		for id, o := range part.NZOwner {
			if int(o) == me {
				ids = append(ids, int32(id))
			}
		}
	} else {
		for id := 0; id < x.NNZ(); id++ {
			for n := 0; n < order; n++ {
				if int(part.RowOwner[n][x.Idx[n][id]]) == me {
					ids = append(ids, int32(id))
					break
				}
			}
		}
	}
	rk.xloc = x.Subset(ids)
	rk.lsym = symbolic.Build(rk.xloc, 1)

	for n := 0; n < order; n++ {
		m := &rk.modes[n]
		m.allOwned = allOwned[n]
		m.owned = allOwned[n][me]
		m.ownedPos = make([]int32, len(m.owned))
		m.gids = make([]int64, len(m.owned))
		lsm := &rk.lsym.Modes[n]
		gsm := &gsym.Modes[n]
		for k, row := range m.owned {
			m.ownedPos[k] = lsm.Pos[row]
			m.gids[k] = int64(gsm.Pos[row])
		}
		rowSize := ttm.RowSize(rk.factors, n)
		m.yOwn = dense.NewMatrix(len(m.owned), rowSize)
		m.wTRSVD = int64(len(m.owned)) * int64(rowSize)

		if part.Grain == Fine {
			m.yloc = dense.NewMatrix(lsm.NumRows(), rowSize)
			m.wTTMc = int64(rk.xloc.NNZ()) * int64(rowSize)
			m.sendDst = make([][]int32, p)
			for r, row := range lsm.Rows {
				if o := int(part.RowOwner[n][row]); o != me {
					m.sendDst[o] = append(m.sendDst[o], int32(r))
				}
			}
			m.recvSrc = make([][]int32, p)
			stamp := make([]int, p)
			for i := range stamp {
				stamp[i] = -1
			}
			for k, row := range m.owned {
				gpos := gsm.Pos[row]
				for _, id := range gsm.RowNZ(int(gpos)) {
					s := int(part.NZOwner[id])
					if s != me && stamp[s] != k {
						stamp[s] = k
						m.recvSrc[s] = append(m.recvSrc[s], int32(k))
					}
				}
			}
			m.foldSrc = nonEmptySources(m.recvSrc)
		} else {
			// Coarse: the rank stores every nonzero of its owned slices,
			// so the owned rows are complete locally; count their work.
			for _, pos := range m.ownedPos {
				m.wTTMc += int64(len(lsm.RowNZ(int(pos)))) * int64(rowSize)
			}
		}
		m.expSend, m.expRecv = expandPlan(n, me, x, part, gsym, rk.lsym, m.owned)
		m.expSrc = nonEmptySources(m.expRecv)
	}
	return rk
}

// ttmc computes the fully folded owned rows of Y_(n) into yOwn.
func (rk *rankState) ttmc(n int) {
	m := &rk.modes[n]
	lsm := &rk.lsym.Modes[n]
	if rk.part.Grain == Coarse {
		ttm.TTMcRows(m.yOwn, rk.xloc, lsm, m.ownedPos, rk.factors, 1)
		return
	}
	// Fine grain: local partials for every touched slice, then fold to
	// the slice owners (Algorithm 4 lines 5-8). The partials were
	// already pruned to actual sharers by the plans; the sparse exchange
	// additionally skips the empty frames the dense skeleton would send
	// to non-sharers, coalescing one packed buffer per peer.
	ttm.TTMc(m.yloc, rk.xloc, lsm, rk.factors, 1)
	k := m.yloc.Cols
	bufs := make([][]float64, rk.p)
	for d, rows := range m.sendDst {
		if len(rows) == 0 {
			continue
		}
		buf := make([]float64, len(rows)*k)
		for j, r := range rows {
			copy(buf[j*k:(j+1)*k], m.yloc.Row(int(r)))
		}
		bufs[d] = buf
	}
	b0 := rk.c.BytesSent()
	var recv [][]float64
	if rk.exchange == ExchangeDense {
		recv = rk.c.AllToAllV(bufs)
	} else {
		recv = rk.c.SparseAllToAllV(bufs, m.foldSrc)
	}
	m.foldBytes += rk.c.BytesSent() - b0
	// Own partial first, then contributions in ascending source-rank
	// order: the accumulation order is fixed, so the fold is
	// deterministic.
	for kk, pos := range m.ownedPos {
		copy(m.yOwn.Row(kk), m.yloc.Row(int(pos)))
	}
	for s := 0; s < rk.p; s++ {
		if s == rk.me || len(m.recvSrc[s]) == 0 {
			continue
		}
		buf := recv[s]
		if len(buf) != len(m.recvSrc[s])*k {
			panic(fmt.Sprintf("dist: fold buffer mismatch from rank %d: %d values for %d rows", s, len(buf), len(m.recvSrc[s])))
		}
		for j, kk := range m.recvSrc[s] {
			dense.Axpy(1, buf[j*k:(j+1)*k], m.yOwn.Row(int(kk)))
		}
	}
}

// trsvd runs the row-distributed Lanczos TRSVD on the owned rows of
// Y_(n) and exchanges the updated factor rows (Algorithm 4 lines 9-12).
// The seed schedule lives in the shared SweepState, so the distributed
// solves draw the same deterministic sequence as the shared-memory
// Engine's.
func (rk *rankState) trsvd(n int) {
	m := &rk.modes[n]
	op := &rowDistOperator{a: m.yOwn, c: rk.c, gids: m.gids, tmp: make([]float64, m.yOwn.Cols)}
	b0 := rk.c.BytesSent()
	sres, err := rk.state.SolveOperator(op, n, rk.ranks[n], rk.svd, nil)
	if err != nil {
		panic(fmt.Sprintf("dist: TRSVD failed in mode %d: %v", n, err))
	}
	m.trsvdBytes += rk.c.BytesSent() - b0
	r := rk.ranks[n]
	if rk.exchange == ExchangeDense {
		b1 := rk.c.BytesSent()
		gathered := rk.c.AllGatherV(sres.U.Data)
		m.expandBytes += rk.c.BytesSent() - b1
		full := dense.NewMatrix(rk.dims[n], r)
		for src := 0; src < rk.p; src++ {
			rows := m.allOwned[src]
			if len(gathered[src]) != len(rows)*r {
				panic(fmt.Sprintf("dist: factor exchange mismatch from rank %d", src))
			}
			for k, row := range rows {
				copy(full.Row(int(row)), gathered[src][k*r:(k+1)*r])
			}
		}
		rk.factors[n] = full
		return
	}
	// Sparse expand: owned rows come straight from the local solve, and
	// only rows some peer's nonzeros reference travel, each to exactly
	// the referencing ranks. Rows no local nonzero references stay zero
	// — the TTMc kernels and the core contraction only ever read
	// referenced rows, so the iterates match the dense path bitwise.
	full := dense.NewMatrix(rk.dims[n], r)
	for k, row := range m.owned {
		copy(full.Row(int(row)), sres.U.Row(k))
	}
	bufs := make([][]float64, rk.p)
	for d, ks := range m.expSend {
		if len(ks) == 0 {
			continue
		}
		buf := make([]float64, len(ks)*r)
		for j, k := range ks {
			copy(buf[j*r:(j+1)*r], sres.U.Row(int(k)))
		}
		bufs[d] = buf
	}
	b1 := rk.c.BytesSent()
	recv := rk.c.SparseAllToAllV(bufs, m.expSrc)
	m.expandBytes += rk.c.BytesSent() - b1
	for s, rows := range m.expRecv {
		if len(rows) == 0 {
			continue
		}
		buf := recv[s]
		if len(buf) != len(rows)*r {
			panic(fmt.Sprintf("dist: expand buffer mismatch from rank %d: %d values for %d rows", s, len(buf), len(rows)))
		}
		for j, row := range rows {
			copy(full.Row(int(row)), buf[j*r:(j+1)*r])
		}
	}
	rk.factors[n] = full
}

// assembleFactors replicates the complete factor matrices on every rank
// with one dense allgather of the owned row blocks per mode. The sparse
// sweep loop never needs rows outside its plans, so full replication
// happens only where a complete factor is genuinely required: the final
// Result (factors identical on every rank is part of its contract) and
// coordinated checkpoints (rank 0 writes the whole state). Under the
// dense exchange the factors are already replicated and this is a
// no-op.
func (rk *rankState) assembleFactors() {
	if rk.exchange == ExchangeDense {
		return
	}
	for n := range rk.factors {
		m := &rk.modes[n]
		r := rk.ranks[n]
		u := rk.factors[n]
		local := make([]float64, len(m.owned)*r)
		for k, row := range m.owned {
			copy(local[k*r:(k+1)*r], u.Row(int(row)))
		}
		gathered := rk.c.AllGatherV(local)
		full := dense.NewMatrix(rk.dims[n], r)
		for src := 0; src < rk.p; src++ {
			rows := m.allOwned[src]
			if len(gathered[src]) != len(rows)*r {
				panic(fmt.Sprintf("dist: factor assembly mismatch from rank %d", src))
			}
			for k, row := range rows {
				copy(full.Row(int(row)), gathered[src][k*r:(k+1)*r])
			}
		}
		rk.factors[n] = full
	}
}

// core forms the core tensor from the last mode's folded rows: the
// owned-row block product is AllReduced so every rank holds the
// identical dense core (Algorithm 4 line 13).
func (rk *rankState) core() *tensor.Dense {
	last := len(rk.dims) - 1
	m := &rk.modes[last]
	u := rk.factors[last]
	uc := dense.NewMatrix(len(m.owned), u.Cols)
	for k, row := range m.owned {
		copy(uc.Row(k), u.Row(int(row)))
	}
	gpart := dense.MatMulTA(uc, m.yOwn, 1)
	sum := rk.c.AllReduceSum(gpart.Data)
	gm := &dense.Matrix{Rows: gpart.Rows, Cols: gpart.Cols, Data: sum}
	return ttm.CoreFromMatricized(gm, rk.ranks, last)
}

// rowDistOperator is the row-distributed matrix-free view of Y_(n):
// each rank stores its owned rows; column-space results are reduced in
// fixed rank order, so every rank receives bitwise-identical vectors
// and the SPMD Lanczos iterations stay in lockstep.
type rowDistOperator struct {
	a    *dense.Matrix
	c    *mpi.Comm
	gids []int64
	tmp  []float64
}

func (o *rowDistOperator) LocalRows() int { return o.a.Rows }
func (o *rowDistOperator) Cols() int      { return o.a.Cols }

func (o *rowDistOperator) MatVec(x, y []float64) { dense.Gemv(o.a, x, y, 1) }

func (o *rowDistOperator) MatTVec(y, x []float64) {
	dense.GemvT(o.a, y, o.tmp, 1)
	copy(x, o.c.AllReduceSum(o.tmp))
}

func (o *rowDistOperator) RowDot(a, b []float64) float64 {
	return o.c.AllReduceScalar(dense.Dot(a, b))
}

func (o *rowDistOperator) GlobalRow(local int) int64 { return o.gids[local] }

// RowGram folds the local Gram block YᵀY of the owned rows with one b²
// AllReduce — the single collective the randomized solver's CholeskyQR2
// panel orthonormalization needs per pass, replacing a distributed QR.
// Ranks owning zero rows contribute a zero block and receive the same
// replicated Gram as everyone else.
func (o *rowDistOperator) RowGram(y, g *dense.Matrix) {
	dense.MatMulTAInto(g, y, y, 1)
	copy(g.Data, o.c.AllReduceSum(g.Data))
}

var _ trsvd.Operator = (*rowDistOperator)(nil)
var _ trsvd.GlobalRowIDer = (*rowDistOperator)(nil)
var _ trsvd.RowGramer = (*rowDistOperator)(nil)
