package par

import (
	"sort"
	"sync/atomic"
)

// PartitionChains splits [0, len(weights)) into parts contiguous chains
// of near-equal total weight and returns the chain boundaries as a
// slice of parts+1 offsets (chain k is [bounds[k], bounds[k+1])). The
// k-th boundary is placed at the prefix-sum position nearest to k/parts
// of the total weight — the classic chain-on-chain heuristic, optimal
// to within one item's weight. The result is a deterministic function
// of the inputs. A zero total weight (or parts == 1) degenerates to the
// uniform split.
func PartitionChains(weights []int64, parts int) []int32 {
	n := len(weights)
	if parts < 1 {
		parts = 1
	}
	if parts == 1 {
		return []int32{0, int32(n)}
	}
	bounds := make([]int32, parts+1)
	prefix := make([]int64, n+1)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		prefix[i+1] = prefix[i] + w
	}
	total := prefix[n]
	if total == 0 {
		for k := 0; k <= parts; k++ {
			lo, _ := Split(n, parts, min(k, parts-1))
			if k == parts {
				lo = n
			}
			bounds[k] = int32(lo)
		}
		return bounds
	}
	bounds[parts] = int32(n)
	for k := 1; k < parts; k++ {
		// Target weight of the first k chains; place the boundary at
		// whichever neighboring prefix position is closer to it.
		target := total * int64(k) / int64(parts)
		j := sort.Search(n, func(i int) bool { return prefix[i+1] >= target })
		if j < n && prefix[j+1]-target < target-prefix[j] {
			j++
		}
		if j32 := int32(j); j32 < bounds[k-1] {
			bounds[k] = bounds[k-1]
		} else {
			bounds[k] = j32
		}
	}
	return bounds
}

// ChainLoads returns the total weight of each chain of a PartitionChains
// result.
func ChainLoads(weights []int64, bounds []int32) []int64 {
	loads := make([]int64, len(bounds)-1)
	for k := range loads {
		for i := bounds[k]; i < bounds[k+1]; i++ {
			loads[k] += weights[i]
		}
	}
	return loads
}

// Imbalance returns max(loads)/mean(loads), the load-balance metric of
// the paper's partitioning experiments (1.0 is perfect). Zero loads
// give 1.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(loads)) / float64(total)
}

// RunChains executes body(worker, lo, hi) over disjoint chunks covering
// [0, bounds[len-1]) on the shared pool. Worker w first drains "its"
// chain [bounds[w], bounds[w+1]) in chunks from the chain's atomic
// cursor; when its chain is empty it steals chunks from the chain with
// the most work remaining. Chunks shrink geometrically toward each
// chain's tail, so stealing granularity tightens exactly where the
// static balance was wrong. Every index is claimed exactly once, so
// owner-computes kernels stay bitwise deterministic under stealing.
func RunChains(bounds []int32, threads int, body func(worker, lo, hi int)) {
	parts := len(bounds) - 1
	if parts <= 0 || bounds[parts] == bounds[0] {
		return
	}
	threads = DefaultThreads(threads)
	if threads <= 1 || parts == 1 {
		body(0, int(bounds[0]), int(bounds[parts]))
		return
	}
	cursors := make([]atomic.Int64, parts)
	for c := 0; c < parts; c++ {
		cursors[c].Store(int64(bounds[c]))
	}
	// claim grabs the next chunk of chain c: an eighth of the remainder,
	// at least minChunk.
	const minChunk = 16
	claim := func(c int) (lo, hi int, ok bool) {
		end := int64(bounds[c+1])
		for {
			cur := cursors[c].Load()
			if cur >= end {
				return 0, 0, false
			}
			chunk := (end - cur) / 8
			if chunk < minChunk {
				chunk = minChunk
			}
			next := cur + chunk
			if next > end {
				next = end
			}
			if cursors[c].CompareAndSwap(cur, next) {
				return int(cur), int(next), true
			}
		}
	}
	sharedPool(threads).Run(threads, func(w int) {
		// Own chain first (workers beyond the chain count go straight
		// to stealing).
		if w < parts {
			for {
				lo, hi, ok := claim(w)
				if !ok {
					break
				}
				body(w, lo, hi)
			}
		}
		// Steal from the chain with the most remaining work.
		for {
			best, bestLeft := -1, int64(0)
			for c := 0; c < parts; c++ {
				if left := int64(bounds[c+1]) - cursors[c].Load(); left > bestLeft {
					best, bestLeft = c, left
				}
			}
			if best < 0 {
				return
			}
			lo, hi, ok := claim(best)
			if !ok {
				continue // lost the race; rescan
			}
			body(w, lo, hi)
		}
	})
}

// reduceBlocks is the fixed reduction grid width used by the
// deterministic parallel reductions: enough blocks to occupy the thread
// counts the paper sweeps (32), few enough that the sequential
// block-order combine stays negligible.
const reduceBlocks = 32

// NumReduceBlocks returns the number of contiguous blocks [0, n) is cut
// into for a bitwise thread-count-invariant parallel reduction. The
// grid depends only on n — never on the thread count — so partials
// combine in the same order however many workers computed them. Tiny n
// reduces sequentially (one block), and the grid grows with n (one
// block per 32 elements, capped) so small inputs do not pay the full
// 32-partial allocation for parallelism they cannot use.
func NumReduceBlocks(n int) int {
	nb := n / reduceBlocks
	if nb < 2 {
		return 1
	}
	if nb > reduceBlocks {
		return reduceBlocks
	}
	return nb
}

// SumBlocks computes sum over b of f(lo_b, hi_b) for the fixed block
// grid of NumReduceBlocks(n), evaluating the blocks in parallel and
// combining the partials in block order. The result is bitwise
// identical for every thread count, unlike a per-worker partial
// reduction whose summation tree follows the worker count.
func SumBlocks(n, threads int, f func(lo, hi int) float64) float64 {
	nb := NumReduceBlocks(n)
	if nb <= 1 {
		if n <= 0 {
			return 0
		}
		return f(0, n)
	}
	partial := make([]float64, nb)
	For(nb, threads, 1, func(b int) {
		lo, hi := Split(n, nb, b)
		partial[b] = f(lo, hi)
	})
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}
