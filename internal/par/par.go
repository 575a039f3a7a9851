// Package par is the shared-memory parallel runtime used throughout the
// library. It stands in for the OpenMP runtime of the paper's C++
// implementation: For mirrors "#pragma omp parallel for
// schedule(dynamic)", ForRange the static schedule, and the
// Pool/Partition layer adds what OpenMP does not have built in —
// weight-aware static partitioning (prefix-sum chain-on-chain over
// per-row nonzero weights) with work-stealing for irregular tails, on
// a persistent worker pool instead of goroutine-per-region fan-out.
// Every owner-computes TTMc row loop runs on those chains
// (PartitionChains + RunChains). SumBlocks and NumReduceBlocks provide
// parallel reductions whose results are bitwise identical for every
// thread count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultThreads returns the worker count used when a caller passes a
// non-positive thread count: the current GOMAXPROCS setting.
func DefaultThreads(threads int) int {
	if threads > 0 {
		return threads
	}
	return runtime.GOMAXPROCS(0)
}

// For runs body(i) for every i in [0, n) on up to threads workers using
// dynamic self-scheduling: workers claim fixed-size chunks from an atomic
// cursor, so irregular per-iteration costs (the norm for sparse tensor
// rows) balance automatically. chunk <= 0 selects a heuristic chunk size.
// With threads <= 1 the loop runs inline on the caller's goroutine.
func For(n, threads, chunk int, body func(i int)) {
	if n <= 0 {
		return
	}
	threads = DefaultThreads(threads)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if chunk <= 0 {
		chunk = chunkFor(n, threads)
	}
	var cursor atomic.Int64
	sharedPool(threads).Run(threads, func(int) {
		for {
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				body(i)
			}
		}
	})
}

// chunkFor is the dynamic-schedule chunk heuristic: aim for ~8 chunks
// per worker to amortize the atomic increment while preserving balance.
// The ceiling division caps the total chunk count at threads*8 even
// when n is barely larger — the old floor heuristic degenerated to
// chunk=1 there, turning the loop into one atomic claim per iteration.
func chunkFor(n, threads int) int {
	target := threads * 8
	chunk := (n + target - 1) / target
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// RangeBody is a parallel range-loop body passed by interface; see
// ForRangeBody.
type RangeBody interface {
	// Range processes the contiguous index range [lo, hi).
	Range(lo, hi int)
}

// rangeRun adapts a RangeBody to the pool's Worker interface; pooled so
// a region submission allocates nothing.
type rangeRun struct {
	n, threads int
	body       RangeBody
}

func (r *rangeRun) Work(w int) {
	lo, hi := Split(r.n, r.threads, w)
	if lo < hi {
		r.body.Range(lo, hi)
	}
}

var rangeRunPool = sync.Pool{New: func() any { return new(rangeRun) }}

// ForRangeBody is ForRange for an interface body: same static
// partition, but the region enters the pool through pooled runner
// objects instead of closures, so a steady-state call performs no heap
// allocation. Kernels that run thousands of small parallel regions per
// sweep (the TRSVD operator applications) use this form.
func ForRangeBody(n, threads int, body RangeBody) {
	if n <= 0 {
		return
	}
	threads = DefaultThreads(threads)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		body.Range(0, n)
		return
	}
	r := rangeRunPool.Get().(*rangeRun)
	r.n, r.threads, r.body = n, threads, body
	sharedPool(threads).RunWorker(threads, r)
	r.body = nil
	rangeRunPool.Put(r)
}

// IndexBody is a parallel index-loop body passed by interface; see
// ForBody.
type IndexBody interface {
	// Index processes iteration i.
	Index(i int)
}

// indexRun adapts an IndexBody to the Worker interface with the same
// chunked self-scheduling as For; pooled like rangeRun.
type indexRun struct {
	n, chunk int
	cursor   atomic.Int64
	body     IndexBody
}

func (r *indexRun) Work(int) {
	for {
		start := int(r.cursor.Add(int64(r.chunk))) - r.chunk
		if start >= r.n {
			return
		}
		end := start + r.chunk
		if end > r.n {
			end = r.n
		}
		for i := start; i < end; i++ {
			r.body.Index(i)
		}
	}
}

var indexRunPool = sync.Pool{New: func() any { return new(indexRun) }}

// ForBody is For for an interface body: chunked dynamic
// self-scheduling with pooled runner objects, allocation-free in steady
// state. The deterministic block reductions (GemvT, MatMulTA) run their
// fixed block grids through it.
func ForBody(n, threads, chunk int, body IndexBody) {
	if n <= 0 {
		return
	}
	threads = DefaultThreads(threads)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		for i := 0; i < n; i++ {
			body.Index(i)
		}
		return
	}
	if chunk <= 0 {
		chunk = chunkFor(n, threads)
	}
	r := indexRunPool.Get().(*indexRun)
	r.n, r.chunk, r.body = n, chunk, body
	r.cursor.Store(0)
	sharedPool(threads).RunWorker(threads, r)
	r.body = nil
	indexRunPool.Put(r)
}

// ForRange runs body(lo, hi) over a static partition of [0, n) into at
// most threads contiguous ranges, one per worker. It is the static
// counterpart of For and is preferred when per-element cost is uniform
// or when the body wants to vectorize over a contiguous range.
func ForRange(n, threads int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	threads = DefaultThreads(threads)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		body(0, n)
		return
	}
	sharedPool(threads).Run(threads, func(w int) {
		lo, hi := Split(n, threads, w)
		if lo < hi {
			body(lo, hi)
		}
	})
}

// ForDynamicWorker combines dynamic chunk scheduling with worker ids:
// body(worker, lo, hi) is invoked for dynamically claimed chunks, so
// each worker can own a scratch buffer. The CP-ALS MTTKRP and the
// range finder behind the HOSVD initialization use it.
func ForDynamicWorker(n, threads, chunk int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	threads = DefaultThreads(threads)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		body(0, 0, n)
		return
	}
	if chunk <= 0 {
		chunk = chunkFor(n, threads)
	}
	var cursor atomic.Int64
	sharedPool(threads).Run(threads, func(worker int) {
		for {
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := start + chunk
			if end > n {
				end = n
			}
			body(worker, start, end)
		}
	})
}

// Split returns the half-open range [lo, hi) of the w-th of p nearly
// equal contiguous blocks of [0, n). Blocks differ in size by at most 1.
func Split(n, p, w int) (lo, hi int) {
	q, r := n/p, n%p
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
