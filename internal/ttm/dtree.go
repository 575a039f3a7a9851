package ttm

import (
	"fmt"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// DTree is a dimension-tree TTMc engine: a binary tree over the tensor
// modes whose internal nodes memoize the partial mode contractions
// shared between the N per-mode TTMc products of one HOOI sweep
// (the dimension-tree scheme of the TuckerMPI / HyperTensor lineage).
//
// A node over the contiguous mode range [Lo, Hi) holds the semi-sparse
// value X ×_{t ∉ [Lo,Hi)} U_tᵀ: one entry per distinct projection of the
// nonzeros onto [Lo, Hi), each carrying a dense block over the
// contracted ranks (ascending mode order, later modes fastest — the
// same Kronecker layout as the flat TTMc kernel). The root is the
// sparse tensor itself; the leaf for mode n is exactly the compacted
// matricized product Y_(n) that HOOI feeds to the TRSVD.
//
// Each child is computed from its parent's cached value by contracting
// the modes the child drops, with the same lock-free row-parallel
// discipline as the flat kernel: every child entry is owned by exactly
// one worker and accumulated in the symbolic (CSR) order, so results
// are bitwise deterministic for any thread count. Updating factor U_n
// invalidates exactly the nodes whose mode set excludes n; the nodes on
// the root-to-leaf-n path stay valid, which is where the flop saving
// over the recompute-everything flat sweep comes from.
//
// A DTree is built once per tensor (symbolic phase) and reused across
// sweeps and rank configurations; it is not safe for concurrent use.
type DTree struct {
	x      *tensor.COO
	order  int
	root   *dnode
	nodes  []*dnode // topological order, parents before children
	leaves []*dnode // leaves[n] is the node for mode set {n}
	// ranks[m] is the factor column count the cached values were
	// computed with; a change invalidates every cache.
	ranks []int
	flops int64
	// nodeTime accumulates wall time spent recomputing internal nodes
	// (the memoized share of TTMc); leaf emission is the remainder.
	nodeTime time.Duration
}

// SetSchedule does nothing: every node recompute runs on balanced
// chains. It is kept only for the frozen per-layer benchmark
// (perfbench/layers.go).
func (t *DTree) SetSchedule(int) {}

// dnode is one tree node.
type dnode struct {
	lo, hi              int
	parent, left, right *dnode
	// groups maps parent entries to this node's entries (nil at root).
	groups *symbolic.Groups
	// keys[m] holds each entry's coordinate in mode m, for m in
	// [lo, hi); nil outside the range. At the root these alias the
	// tensor's index arrays.
	keys [][]int32
	n    int // number of entries
	// Numeric cache (internal nodes only; leaves are emitted straight
	// into the caller's matrix since each is consumed once per sweep).
	blockSize int
	val       []float64
	valid     bool
	computes  int
	// partials counts delta-driven partial recomputations (dirty entries
	// only, the cache otherwise intact).
	partials int
	// dirty lists entry positions whose cached blocks are stale against
	// the tensor (sorted ascending): the per-row generalization of the
	// whole-node valid flag, set by ApplyDelta and cleared by the next
	// recompute. Meaningful only while valid is true — a full
	// invalidation subsumes it.
	dirty []int32
	// bounds caches the balanced chain partition of the node's entries
	// (weighted by group size) for boundsThreads workers.
	bounds        []int32
	boundsThreads int
}

// chains returns (building on first use) the balanced chain partition
// of the node's entries, weighted by each entry's update-list length —
// the partition the recompute loops run on.
func (nd *dnode) chains(threads int) []int32 {
	if nd.bounds == nil || nd.boundsThreads != threads {
		w := make([]int64, nd.n)
		for g := range w {
			w[g] = int64(nd.groups.Ptr[g+1] - nd.groups.Ptr[g])
		}
		nd.bounds = par.PartitionChains(w, threads)
		nd.boundsThreads = threads
	}
	return nd.bounds
}

func (nd *dnode) isLeaf() bool { return nd.hi-nd.lo == 1 }

// NewDTree builds the symbolic dimension tree for x: node structure and
// the per-node update lists (groupings). No factor matrices are needed;
// numeric values are computed lazily by TTMc. x must have order >= 2
// and at least one nonzero. The root aliases x's per-mode index
// streams.
func NewDTree(x *tensor.COO) *DTree {
	if x.Order() < 2 {
		panic("ttm: DTree requires an order >= 2 tensor")
	}
	if x.NNZ() == 0 {
		panic("ttm: DTree requires a nonempty tensor")
	}
	t := &DTree{
		x:      x,
		order:  x.Order(),
		leaves: make([]*dnode, x.Order()),
	}
	t.root = &dnode{lo: 0, hi: t.order, n: x.NNZ(), keys: make([][]int32, t.order)}
	copy(t.root.keys, x.Idx)
	t.nodes = append(t.nodes, t.root)
	t.split(t.root)
	return t
}

// split recursively builds both children of an internal node and their
// symbolic groupings.
func (t *DTree) split(nd *dnode) {
	if nd.isLeaf() {
		t.leaves[nd.lo] = nd
		return
	}
	mid := (nd.lo + nd.hi + 1) / 2
	nd.left = t.makeChild(nd, nd.lo, mid)
	nd.right = t.makeChild(nd, mid, nd.hi)
	t.split(nd.left)
	t.split(nd.right)
}

// makeChild groups the parent's entries by the child's mode range.
func (t *DTree) makeChild(parent *dnode, lo, hi int) *dnode {
	modes := make([]int, hi-lo)
	for i := range modes {
		modes[i] = lo + i
	}
	g := symbolic.GroupByModes(parent.keys, parent.n, modes)
	c := &dnode{
		lo: lo, hi: hi, parent: parent,
		groups: g,
		keys:   make([][]int32, t.order),
		n:      g.NumGroups(),
	}
	for j, m := range modes {
		c.keys[m] = g.Keys[j]
	}
	t.nodes = append(t.nodes, c)
	return c
}

// Invalidate records that factor matrix n changed: every cached node
// whose mode set excludes n (and therefore depends on U_n) is marked
// dirty. Nodes containing n — the root-to-leaf-n path — remain valid.
func (t *DTree) Invalidate(n int) {
	for _, nd := range t.nodes {
		if n < nd.lo || n >= nd.hi {
			nd.valid = false
			nd.dirty = nil // subsumed by the full recompute
		}
	}
}

// InvalidateAll drops every cached value (used when the factor ranks
// change between calls).
func (t *DTree) InvalidateAll() {
	for _, nd := range t.nodes {
		nd.valid = false
		nd.dirty = nil
	}
	t.ranks = nil
}

// Flops returns the accumulated multiply-add count of all node and leaf
// computations so far (dominant AXPY terms, the same convention as
// Flops for the flat kernel).
func (t *DTree) Flops() int64 { return t.flops }

// ResetFlops zeroes the flop counter (the cache state is untouched).
func (t *DTree) ResetFlops() { t.flops = 0 }

// NodeTime returns the accumulated wall time spent recomputing internal
// tree nodes, the memoized portion of TTMc; the rest of each TTMc call
// is leaf emission.
func (t *DTree) NodeTime() time.Duration { return t.nodeTime }

// NodeInfo describes one tree node for tests and diagnostics.
type NodeInfo struct {
	Lo, Hi   int  // mode range [Lo, Hi)
	Entries  int  // distinct projections of the nonzeros
	Valid    bool // cached value up to date (internal nodes only)
	Computes int  // full numeric recomputations so far
	Partials int  // delta-driven partial (dirty-entries-only) recomputations
	Dirty    int  // entries currently marked stale against the tensor
}

// Nodes reports the state of every tree node in topological order
// (root first).
func (t *DTree) Nodes() []NodeInfo {
	out := make([]NodeInfo, len(t.nodes))
	for i, nd := range t.nodes {
		out[i] = NodeInfo{Lo: nd.lo, Hi: nd.hi, Entries: nd.n, Valid: nd.valid,
			Computes: nd.computes, Partials: nd.partials, Dirty: len(nd.dirty)}
	}
	return out
}

// NumRows returns the number of compact result rows for mode n (the
// count of nonempty slices), matching symbolic.Mode.NumRows.
func (t *DTree) NumRows(n int) int { return t.leaves[n].n }

// Rows returns the sorted nonempty slice indices of mode n, matching
// symbolic.Mode.Rows.
func (t *DTree) Rows(n int) []int32 { return t.leaves[n].keys[n] }

// TTMc computes the compacted mode-n matricized product Y_(n) into y —
// the same result (and row order) as the flat TTMc over the mode's
// update lists — reusing every cached ancestor that is still valid and
// recomputing only invalidated ones. y must be pre-shaped
// NumRows(n) x RowSize(u, n); it is overwritten.
func (t *DTree) TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int) {
	t.syncRanks(u)
	leaf := t.leaves[n]
	if y.Rows != leaf.n || y.Cols != t.rowSize(leaf) {
		panic("ttm: DTree TTMc output shape mismatch")
	}
	start := time.Now()
	t.ensure(leaf.parent, u, threads)
	t.nodeTime += time.Since(start)
	t.contract(leaf, y.Data, nil, u, threads)
	leaf.dirty = nil // leaves are emitted in full, never cached
}

// syncRanks checks the factor column counts against the cached values
// and drops every cache when they changed.
func (t *DTree) syncRanks(u []*dense.Matrix) {
	if len(u) != t.order {
		panic(fmt.Sprintf("ttm: DTree built for order %d, got %d factors", t.order, len(u)))
	}
	same := t.ranks != nil
	for m := 0; m < t.order; m++ {
		if u[m] == nil {
			panic("ttm: DTree requires every factor matrix (leaves contract all other modes)")
		}
		if same && t.ranks[m] != u[m].Cols {
			same = false
		}
	}
	if same {
		return
	}
	t.InvalidateAll()
	t.ranks = make([]int, t.order)
	for m := 0; m < t.order; m++ {
		t.ranks[m] = u[m].Cols
	}
}

// rowSize is the dense block length of a node's entries: the product of
// the contracted modes' ranks.
func (t *DTree) rowSize(nd *dnode) int {
	size := 1
	for m := 0; m < t.order; m++ {
		if m < nd.lo || m >= nd.hi {
			size *= t.ranks[m]
		}
	}
	return size
}

// ensure makes nd's cached value valid, recomputing ancestors first.
// The root is always valid (it is the tensor itself). A node that is
// valid but carries delta-dirty entries gets a partial recompute: only
// the dirty blocks are rebuilt from the (ensured) parent, bit-for-bit
// what a full recompute would produce for them, while every untouched
// block keeps its cached value untouched.
func (t *DTree) ensure(nd *dnode, u []*dense.Matrix, threads int) {
	if nd == t.root || (nd.valid && len(nd.dirty) == 0) {
		return
	}
	t.ensure(nd.parent, u, threads)
	if nd.valid {
		t.contract(nd, nd.val, nd.dirty, u, threads)
		nd.partials++
		nd.dirty = nil
		return
	}
	bs := t.rowSize(nd)
	if cap(nd.val) < nd.n*bs {
		nd.val = make([]float64, nd.n*bs)
	}
	nd.val = nd.val[:nd.n*bs]
	nd.blockSize = bs
	t.contract(nd, nd.val, nil, u, threads)
	nd.valid = true
	nd.dirty = nil
}

// contract computes nd's value into dst (nd.n blocks of rowSize(nd))
// from its parent's value, contracting the modes the child drops. rows
// selects a subset of entry positions to recompute (nil means every
// entry — the full evaluation). Every computed entry is owned by
// exactly one worker and accumulated in CSR order, so the result is
// deterministic for any thread count and identical whether an entry is
// reached by a full or a partial pass.
func (t *DTree) contract(nd *dnode, dst []float64, rows []int32, u []*dense.Matrix, threads int) {
	parent := nd.parent
	bs := t.rowSize(nd)
	// Dropped modes: the parent keeps them sparse, the child contracts
	// them (left child drops a suffix of the parent range, right child
	// a prefix).
	var dropLo, dropHi int
	if nd.lo == parent.lo {
		dropLo, dropHi = nd.hi, parent.hi
	} else {
		dropLo, dropHi = parent.lo, nd.lo
	}
	nDrop := dropHi - dropLo
	threads = par.DefaultThreads(threads)
	nRows := nd.n
	work := int64(parent.n) // sum of group sizes over all entries
	if rows == nil {
		nd.computes++
	} else {
		nRows = len(rows)
		work = 0
		for _, g := range rows {
			work += int64(nd.groups.Ptr[g+1] - nd.groups.Ptr[g])
		}
	}
	entry := func(j int) int {
		if rows == nil {
			return j
		}
		return int(rows[j])
	}
	chainsFn := func() []int32 {
		if rows == nil {
			return nd.chains(threads)
		}
		w := make([]int64, len(rows))
		for j, g := range rows {
			w[j] = int64(nd.groups.Ptr[g+1] - nd.groups.Ptr[g])
		}
		return par.PartitionChains(w, threads)
	}
	t.flops += work * int64(bs)

	if parent == t.root {
		// Root child: contract straight from the nonzeros with the same
		// fused Kronecker kernel as the flat TTMc. The dropped modes
		// here are all contracted modes of the child (both sides of the
		// range), ascending.
		kr := newKron(t.x, u, nd.lo, nd.hi)
		scs := make([]kronScratch, threads)
		runRows(nRows, threads, chainsFn, func(w, lo, hi int) {
			sc := kr.scratch(scs, w)
			for j := lo; j < hi; j++ {
				g := entry(j)
				row := dst[g*bs : (g+1)*bs]
				clear(row)
				for _, id := range nd.groups.Group(g) {
					kr.add(row, int(id), sc)
				}
			}
		})
		return
	}

	// Internal step: the parent's blocks cover the modes outside
	// [parent.lo, parent.hi) as an A x B matrix (A = ranks before the
	// range, B = ranks after). The dropped modes sit between those two
	// groups in the child's ascending layout, so each parent block is
	// scaled into the child block at stride positions:
	//
	//	child[a, d, b] += parent[a, b] * (⊗_{m dropped} U_m(key_m, :))[d]
	a := 1
	for m := 0; m < parent.lo; m++ {
		a *= t.ranks[m]
	}
	b := 1
	for m := parent.hi; m < t.order; m++ {
		b *= t.ranks[m]
	}
	d := 1
	for m := dropLo; m < dropHi; m++ {
		d *= t.ranks[m]
	}
	pbs := parent.blockSize
	type scratch struct {
		rows [][]float64
		kron []float64
	}
	scratches := make([]*scratch, threads)
	runRows(nRows, threads, chainsFn, func(w, lo, hi int) {
		sc := scratches[w]
		if sc == nil {
			sc = &scratch{rows: make([][]float64, nDrop), kron: make([]float64, d)}
			scratches[w] = sc
		}
		for jr := lo; jr < hi; jr++ {
			g := entry(jr)
			blk := dst[g*bs : (g+1)*bs]
			for i := range blk {
				blk[i] = 0
			}
			for _, e := range nd.groups.Group(g) {
				kw := sc.kron
				if nDrop == 1 {
					kw = u[dropLo].Row(int(parent.keys[dropLo][e]))
				} else {
					for j := 0; j < nDrop; j++ {
						m := dropLo + j
						sc.rows[j] = u[m].Row(int(parent.keys[m][e]))
					}
					KronRows(sc.rows, kw)
				}
				pblk := parent.val[int(e)*pbs : (int(e)+1)*pbs]
				for ai := 0; ai < a; ai++ {
					pa := pblk[ai*b : (ai+1)*b]
					for di, wv := range kw {
						if wv == 0 {
							continue
						}
						dense.Axpy(wv, pa, blk[(ai*d+di)*b:(ai*d+di+1)*b])
					}
				}
			}
		}
	})
}

// SweepFlops returns the flat-path multiply-add count of one full HOOI
// sweep over all modes (the recompute-everything cost the tree is
// measured against): sum over modes of nnz * RowSize.
func SweepFlops(nnz int, u []*dense.Matrix) int64 {
	var total int64
	for n := range u {
		total += Flops(nnz, RowSize(u, n))
	}
	return total
}
