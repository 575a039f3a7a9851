package symbolic

// Groups generalizes the per-mode update lists to mode *sets*: entries
// are grouped by their joint coordinates in a subset of modes, in CSR
// form. The dimension-tree TTMc engine keys every tree node by the mode
// set it keeps sparse, so the update list of a node groups the parent
// node's entries by their projection onto the child's modes. Like Mode,
// a Groups is symbolic only — built once per tensor and reused by every
// numeric sweep — and fixes the accumulation order (ascending entry id
// within each group), which is what makes the numeric tree kernels
// deterministic for any thread count.
type Groups struct {
	// Modes are the key modes, ascending.
	Modes []int
	// Keys[j][g] is group g's coordinate in mode Modes[j]. Groups are
	// ordered lexicographically by their key tuple.
	Keys [][]int32
	// Ptr are CSR row pointers into Ids, len(NumGroups)+1.
	Ptr []int32
	// Ids lists the entry ids of each group, ascending within a group;
	// a permutation of 0..n-1.
	Ids []int32
}

// NumGroups returns the number of distinct key tuples.
func (g *Groups) NumGroups() int { return len(g.Ptr) - 1 }

// Group returns the entry ids of the i-th group.
func (g *Groups) Group(i int) []int32 { return g.Ids[g.Ptr[i]:g.Ptr[i+1]] }

// GroupByModes groups n entries by their joint coordinates in the given
// modes. keys is indexed by mode number; only the listed modes are
// consulted (others may be nil). The result orders groups
// lexicographically by coordinate tuple and entry ids ascending within
// each group, so it is a deterministic function of its inputs. The sort
// is an LSD radix of stable counting-sort passes — the same
// histogram/prefix-sum/scatter pattern as the per-mode update lists —
// so grouping costs O(n * len(modes)), not a comparison sort over the
// nonzero stream.
func GroupByModes(keys [][]int32, n int, modes []int) *Groups {
	cols := make([][]int32, len(modes))
	for j, m := range modes {
		cols[j] = keys[m]
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	// Least-significant mode first: each pass is the shared stable
	// counting-sort pass, so after the final pass entries are in
	// lexicographic key order with original (ascending) ids within
	// equal tuples.
	next := make([]int32, n)
	for j := len(cols) - 1; j >= 0; j-- {
		col := cols[j]
		var hi int32
		for _, k := range col {
			if k > hi {
				hi = k
			}
		}
		groupByKey(col, perm, next, make([]int32, hi+1))
		perm, next = next, perm
	}
	same := func(a, b int32) bool {
		for _, col := range cols {
			if col[a] != col[b] {
				return false
			}
		}
		return true
	}

	g := &Groups{
		Modes: append([]int(nil), modes...),
		Keys:  make([][]int32, len(modes)),
		Ids:   perm,
		Ptr:   make([]int32, 1, n+1),
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && same(perm[i], perm[j]) {
			j++
		}
		for c, col := range cols {
			g.Keys[c] = append(g.Keys[c], col[perm[i]])
		}
		g.Ptr = append(g.Ptr, int32(j))
		i = j
	}
	return g
}
