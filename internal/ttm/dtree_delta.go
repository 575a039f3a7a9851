package ttm

import (
	"sort"

	"hypertensor/internal/tensor"
)

// Rebind swaps the tree onto a different tensor that holds the
// identical nonzero content in the identical storage order (e.g. a
// clone taken so a resident engine can mutate its tensor without
// touching the plan's copy). All symbolic groupings and numeric caches
// stay valid; only the root's index-stream aliases are refreshed.
func (t *DTree) Rebind(x *tensor.COO) {
	if x.Order() != t.order || x.NNZ() != t.root.n {
		panic("ttm: Rebind tensor does not match the tree")
	}
	t.x = x
	copy(t.root.keys, x.Idx)
}

// deltaState carries one node's delta bookkeeping down the tree: the
// node's freshly inserted entry positions, the entries whose cached
// blocks went stale, and the monotone old-to-new position shift of the
// surviving entries (nil means identity).
type deltaState struct {
	inserted []int32
	dirty    []int32
	shift    []int32 // shift[oldPos] = newPos - oldPos
}

// ApplyDelta incorporates a tensor mutation into the tree without
// rebuilding it: nonzeros at storage positions changed had their value
// updated in place, and nonzeros oldNNZ..NNZ()-1 were appended at the
// tail (the stable-id discipline of tensor.COO.Merge). The per-node
// update lists are maintained incrementally — appended nonzeros are
// spliced into the groups of every node by a linear merge, never a
// re-sort — and instead of invalidating whole nodes, exactly the
// entries whose group gained a member or contains a changed nonzero
// are marked dirty, the per-row generalization of Invalidate. The next
// TTMc recomputes only those entries of otherwise-valid nodes; every
// untouched cached block is preserved bit-for-bit.
func (t *DTree) ApplyDelta(changed []int32, oldNNZ int) {
	nnz := t.x.NNZ()
	if oldNNZ < 0 || oldNNZ > nnz {
		panic("ttm: ApplyDelta old nonzero count out of range")
	}
	// Refresh the root aliases: appends may have reallocated the
	// underlying streams.
	t.root.n = nnz
	copy(t.root.keys, t.x.Idx)
	appended := make([]int32, nnz-oldNNZ)
	for i := range appended {
		appended[i] = int32(oldNNZ + i)
	}
	if len(appended) == 0 && len(changed) == 0 {
		return
	}
	states := make(map[*dnode]*deltaState, len(t.nodes))
	states[t.root] = &deltaState{inserted: appended, dirty: changed}
	for _, nd := range t.nodes[1:] {
		states[nd] = t.regroup(nd, states[nd.parent])
	}
}

// regroup splices the parent's inserted entries into nd's grouping and
// computes nd's own delta state. The walk is a linear merge over the
// old groups (sorted by key tuple) and the insertions (sorted the same
// way), so existing groups keep their relative order and their members
// keep ascending-position order — the accumulation order of a fresh
// GroupByModes build, which keeps partial recomputes bitwise identical
// to full ones.
func (t *DTree) regroup(nd *dnode, ps *deltaState) *deltaState {
	parent := nd.parent
	out := &deltaState{}

	modes := nd.groups.Modes
	cols := make([][]int32, len(modes)) // node key columns (old groups)
	pcols := make([][]int32, len(modes))
	for j, m := range modes {
		cols[j] = nd.keys[m]
		pcols[j] = parent.keys[m]
	}
	// cmpGI orders old group g against parent entry p by key tuple.
	cmpGI := func(g int, p int32) int {
		for j := range cols {
			if cols[j][g] != pcols[j][p] {
				if cols[j][g] < pcols[j][p] {
					return -1
				}
				return 1
			}
		}
		return 0
	}

	if len(ps.inserted) == 0 {
		// Structure unchanged: only propagate value-staleness. An
		// entry's group is determined by its key projection and the
		// groups are key-sorted, so each stale parent entry locates its
		// group by binary search — O(|dirty| log n), proportional to
		// the delta, not the tensor.
		if len(ps.dirty) > 0 {
			seen := int32(-1)
			for _, p := range ps.dirty {
				g := sort.Search(nd.n, func(g int) bool { return cmpGI(g, p) >= 0 })
				if g >= nd.n || cmpGI(g, p) != 0 {
					panic("ttm: dirty entry has no group (tree out of sync with tensor)")
				}
				// ps.dirty ascends in parent position but the group
				// sequence it maps to need not be monotone; collect
				// unique then sort.
				if int32(g) != seen {
					out.dirty = append(out.dirty, int32(g))
					seen = int32(g)
				}
			}
			sort.Slice(out.dirty, func(a, b int) bool { return out.dirty[a] < out.dirty[b] })
			out.dirty = dedupSorted(out.dirty)
		}
		t.markDirty(nd, out.dirty, nil)
		return out
	}

	// Stale members of the parent, by new parent position (the
	// structural walk below touches every member anyway, so a flag
	// array is the cheap lookup here).
	dirtyFlag := make([]bool, parent.n)
	for _, p := range ps.dirty {
		dirtyFlag[p] = true
	}
	// Insertions sorted by the node's key tuple; the stable sort keeps
	// ascending parent positions within equal tuples.
	items := append([]int32(nil), ps.inserted...)
	sort.SliceStable(items, func(a, b int) bool {
		pa, pb := items[a], items[b]
		for _, col := range pcols {
			if col[pa] != col[pb] {
				return col[pa] < col[pb]
			}
		}
		return false
	})
	sameItem := func(a, b int32) bool {
		for _, col := range pcols {
			if col[a] != col[b] {
				return false
			}
		}
		return true
	}
	remap := func(old int32) int32 {
		if ps.shift == nil {
			return old
		}
		return old + ps.shift[old]
	}

	oldN := nd.n
	newKeys := make([][]int32, len(modes))
	for j := range newKeys {
		newKeys[j] = make([]int32, 0, oldN+len(items))
	}
	newPtr := make([]int32, 1, oldN+len(items)+1)
	newIds := make([]int32, 0, parent.n)
	shift := make([]int32, oldN)
	gained := false // any old group gained a member

	g, p := 0, 0
	for g < oldN || p < len(items) {
		if p >= len(items) || (g < oldN && cmpGI(g, items[p]) <= 0) {
			newG := int32(len(newPtr) - 1)
			shift[g] = newG - int32(g)
			isDirty := false
			olds := nd.groups.Group(g)
			var adds []int32
			for p < len(items) && cmpGI(g, items[p]) == 0 {
				adds = append(adds, items[p])
				p++
			}
			oi, ai := 0, 0
			for oi < len(olds) || ai < len(adds) {
				var id int32
				if ai >= len(adds) || (oi < len(olds) && remap(olds[oi]) < adds[ai]) {
					id = remap(olds[oi])
					oi++
				} else {
					id = adds[ai]
					ai++
					isDirty = true
					gained = true
				}
				newIds = append(newIds, id)
				if dirtyFlag[id] {
					isDirty = true
				}
			}
			for j := range cols {
				newKeys[j] = append(newKeys[j], cols[j][g])
			}
			newPtr = append(newPtr, int32(len(newIds)))
			if isDirty {
				out.dirty = append(out.dirty, newG)
			}
			g++
		} else {
			// Brand-new group: collect every insertion sharing the tuple.
			newG := int32(len(newPtr) - 1)
			first := items[p]
			for j := range pcols {
				newKeys[j] = append(newKeys[j], pcols[j][first])
			}
			for p < len(items) && sameItem(first, items[p]) {
				newIds = append(newIds, items[p])
				p++
			}
			newPtr = append(newPtr, int32(len(newIds)))
			out.inserted = append(out.inserted, newG)
			out.dirty = append(out.dirty, newG)
		}
	}

	newN := len(newPtr) - 1
	structural := len(out.inserted) > 0
	if nd.valid && structural {
		// Move the cached blocks to their shifted positions; inserted
		// entries get zero blocks (recomputed by the partial pass).
		bs := nd.blockSize
		newVal := make([]float64, newN*bs)
		for og := 0; og < oldN; og++ {
			ng := int(int32(og) + shift[og])
			copy(newVal[ng*bs:(ng+1)*bs], nd.val[og*bs:(og+1)*bs])
		}
		nd.val = newVal
	}
	if structural || gained {
		nd.groups.Ptr = newPtr
		nd.groups.Ids = newIds
		for j, m := range modes {
			nd.keys[m] = newKeys[j]
			nd.groups.Keys[j] = newKeys[j]
		}
		nd.n = newN
		nd.bounds = nil
	}
	if !structural {
		out.shift = nil // identity: no entry moved
		t.markDirty(nd, out.dirty, nil)
	} else {
		out.shift = shift
		t.markDirty(nd, out.dirty, shift)
	}
	return out
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(a []int32) []int32 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// markDirty merges freshly stale entries into the node's pending dirty
// set, remapping any previously pending positions by the entry shift
// first. Leaves and invalid nodes carry no dirty set (the former are
// always emitted in full, the latter face a full recompute anyway).
func (t *DTree) markDirty(nd *dnode, fresh []int32, shift []int32) {
	if nd.isLeaf() || !nd.valid {
		nd.dirty = nil
		return
	}
	if len(nd.dirty) == 0 {
		nd.dirty = append([]int32(nil), fresh...)
		return
	}
	old := nd.dirty
	if shift != nil {
		for i, g := range old {
			old[i] = g + shift[g]
		}
	}
	merged := make([]int32, 0, len(old)+len(fresh))
	i, j := 0, 0
	for i < len(old) || j < len(fresh) {
		switch {
		case j >= len(fresh) || (i < len(old) && old[i] < fresh[j]):
			merged = append(merged, old[i])
			i++
		case i >= len(old) || fresh[j] < old[i]:
			merged = append(merged, fresh[j])
			j++
		default:
			merged = append(merged, old[i])
			i++
			j++
		}
	}
	nd.dirty = merged
}
