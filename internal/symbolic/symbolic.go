// Package symbolic implements the symbolic TTMc preprocessing step of
// the paper (§III.A.1): for every mode n it groups the tensor's nonzero
// ids by their mode-n index into update lists ul_n(i), stored as a CSR
// structure over the set J_n of nonempty slices. The structure resolves
// all index computations and write dependencies once, before the HOOI
// iterations, so the numeric TTMc can update each row of Y_(n)
// independently in parallel without locks. It is built once and reused
// by every iteration (and by every run with different ranks).
package symbolic

import (
	"fmt"

	"hypertensor/internal/par"
	"hypertensor/internal/tensor"
)

// Mode is the symbolic structure for one mode: update lists ul_n(i) in
// CSR form. For the r-th nonempty slice (row index Rows[r]), the nonzero
// ids contributing to Y_(n)(Rows[r], :) are NZ[Ptr[r]:Ptr[r+1]].
type Mode struct {
	N    int     // which mode this structure describes
	Rows []int32 // J_n: sorted distinct mode-n indices with nonempty slices
	Ptr  []int32 // row pointers into NZ, len(Rows)+1
	NZ   []int32 // nonzero ids grouped by row; a permutation of 0..nnz-1
	// Pos maps a mode-n index to its position in Rows, or -1 when the
	// slice is empty. Sized Dims[n]; int32 keeps it compact for the
	// multi-million-index modes of the 4-mode datasets.
	Pos []int32

	// chains is the balanced chain partition of the rows for
	// chainThreads workers, built with the structure (see Chains).
	chains       []int32
	chainThreads int
}

// NumRows returns |J_n|, the number of nonempty slices.
func (m *Mode) NumRows() int { return len(m.Rows) }

// RowNZ returns the nonzero ids of the r-th nonempty slice.
func (m *Mode) RowNZ(r int) []int32 { return m.NZ[m.Ptr[r]:m.Ptr[r+1]] }

// RowWeights returns the per-row nonzero counts — the TTMc cost of each
// row, which the row chains partition over.
func (m *Mode) RowWeights() []int64 {
	w := make([]int64, m.NumRows())
	for r := range w {
		w[r] = int64(m.Ptr[r+1] - m.Ptr[r])
	}
	return w
}

// Chains returns the balanced chain partition of the mode's rows for
// the given worker count (par.PartitionChains over RowWeights). The
// partition for the thread count the structure was built with is
// computed once, with the structure, and shared read-only; any other
// thread count gets a fresh partition per call. Chains never writes to
// the mode, so concurrent callers are safe.
func (m *Mode) Chains(threads int) []int32 {
	if threads == m.chainThreads && m.chains != nil {
		return m.chains
	}
	return par.PartitionChains(m.RowWeights(), threads)
}

// buildChains (re)computes the cached row partition for threads
// workers; it runs only while the mode is being built or spliced.
func (m *Mode) buildChains(threads int) {
	m.chains = par.PartitionChains(m.RowWeights(), threads)
	m.chainThreads = threads
}

// Structure bundles the per-mode symbolic data for a tensor.
type Structure struct {
	Modes []Mode
}

// Build computes the symbolic TTMc structure for every mode of t. The
// per-mode constructions are independent and run in parallel (the paper
// parallelizes exactly this way); each is a counting sort over the
// mode's index stream (histogram, prefix sum, scatter), followed by the
// row chains for threads workers (see Mode.Chains). The result is not
// written again except by Insert, so one structure may back any number
// of concurrent readers.
func Build(t *tensor.COO, threads int) *Structure {
	threads = par.DefaultThreads(threads)
	s := &Structure{Modes: make([]Mode, t.Order())}
	par.For(t.Order(), threads, 1, func(n int) {
		s.Modes[n] = buildMode(t.Idx[n], t.Dims[n], n)
		s.Modes[n].buildChains(threads)
	})
	return s
}

func buildMode(idx []int32, dim, n int) Mode {
	nnz := len(idx)
	counts := make([]int32, dim)
	nz := make([]int32, nnz)
	groupByKey(idx, nil, nz, counts)
	// counts now holds per-index group end offsets; collect nonempty
	// rows, their pointers, and the Pos map from them.
	pos := make([]int32, dim)
	rows := make([]int32, 0, dim)
	ptr := make([]int32, 1, dim+1)
	prev := int32(0)
	for i, end := range counts {
		if end > prev {
			pos[i] = int32(len(rows))
			rows = append(rows, int32(i))
			ptr = append(ptr, end)
		} else {
			pos[i] = -1
		}
		prev = end
	}
	return Mode{N: n, Rows: rows, Ptr: ptr, NZ: nz, Pos: pos}
}

// Validate checks the structural invariants: Rows sorted and within
// range, Ptr monotone covering exactly nnz ids, NZ a permutation of
// 0..nnz-1 where every id lands in the row matching its mode index, and
// Pos consistent with Rows. Used by tests and available to callers
// ingesting untrusted structures.
func (s *Structure) Validate(t *tensor.COO) error {
	if len(s.Modes) != t.Order() {
		return fmt.Errorf("symbolic: %d modes for order-%d tensor", len(s.Modes), t.Order())
	}
	for n := range s.Modes {
		m := &s.Modes[n]
		stream := t.Idx[n]
		if m.N != n {
			return fmt.Errorf("symbolic: mode %d labeled %d", n, m.N)
		}
		if len(m.Ptr) != len(m.Rows)+1 || int(m.Ptr[len(m.Rows)]) != t.NNZ() {
			return fmt.Errorf("symbolic: mode %d pointer structure inconsistent", n)
		}
		seen := make([]bool, t.NNZ())
		for r := range m.Rows {
			if r > 0 && m.Rows[r] <= m.Rows[r-1] {
				return fmt.Errorf("symbolic: mode %d rows not strictly sorted", n)
			}
			if m.Ptr[r] > m.Ptr[r+1] {
				return fmt.Errorf("symbolic: mode %d ptr not monotone", n)
			}
			if m.Pos[m.Rows[r]] != int32(r) {
				return fmt.Errorf("symbolic: mode %d Pos inconsistent at row %d", n, r)
			}
			for _, id := range m.RowNZ(r) {
				if id < 0 || int(id) >= t.NNZ() {
					return fmt.Errorf("symbolic: mode %d nonzero id %d out of range", n, id)
				}
				if seen[id] {
					return fmt.Errorf("symbolic: mode %d nonzero id %d duplicated", n, id)
				}
				seen[id] = true
				if stream[id] != m.Rows[r] {
					return fmt.Errorf("symbolic: mode %d nonzero %d in wrong row", n, id)
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				return fmt.Errorf("symbolic: mode %d missing nonzero id %d", n, id)
			}
		}
		for i, p := range m.Pos {
			if p == -1 {
				continue
			}
			if int(p) >= len(m.Rows) || m.Rows[p] != int32(i) {
				return fmt.Errorf("symbolic: mode %d Pos[%d] broken", n, i)
			}
		}
	}
	return nil
}
