package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

// KronRows writes the Kronecker product of the given row vectors into
// dst, which must have length equal to the product of the row lengths.
// The last row varies fastest, matching the matricization layout
// produced by tensor.MatricizeOffset.
func KronRows(rows [][]float64, dst []float64) {
	if len(rows) == 0 {
		if len(dst) != 1 {
			panic("ttm: KronRows of no rows needs dst of length 1")
		}
		dst[0] = 1
		return
	}
	size := 1
	for _, r := range rows {
		size *= len(r)
	}
	if size != len(dst) {
		panic("ttm: KronRows dst length mismatch")
	}
	dst[0] = 1
	cur := 1
	for _, r := range rows {
		// Expand dst[:cur] by r in place, walking backwards so sources
		// are not overwritten before they are read.
		for p := cur - 1; p >= 0; p-- {
			v := dst[p]
			base := p * len(r)
			for q := len(r) - 1; q >= 0; q-- {
				dst[base+q] = v * r[q]
			}
		}
		cur *= len(r)
	}
}

// RowSize returns the TTMc row length for the given factor matrices when
// mode skip is left uncontracted: prod_{t != skip} U[t].Cols.
func RowSize(u []*dense.Matrix, skip int) int {
	size := 1
	for t, m := range u {
		if t == skip || m == nil {
			continue
		}
		size *= m.Cols
	}
	return size
}

// kronScratchLen returns the per-worker scratch length accumKron needs
// for contracted rows of the given lengths: the larger of the prefix
// product (every row but the last, the generic loop's buffers) and the
// suffix product (the last two rows, the k=3 kernel's w = b ⊗ c).
// Every caller sizes its scratch here, so each shape takes exactly one
// kernel path.
func kronScratchLen(lens []int) int {
	k := len(lens)
	prefix := 1
	for j := 0; j < k-1; j++ {
		prefix *= lens[j]
	}
	suffix := 1
	if k >= 3 {
		suffix = lens[k-2] * lens[k-1]
	}
	return max(prefix, suffix)
}

// accumKron adds x * (rows[0] ⊗ rows[1] ⊗ ... ⊗ rows[k-1]) to dst, the
// per-nonzero kernel of every flat TTMc path (docs/architecture.md, "The
// TTMc inner loop"). The common shapes are fused:
//
//   - k = 1 (2-mode tensors) is one Axpy.
//   - k = 2 (3-mode tensors) writes straight into dst with no scratch:
//     dst[p·|b| + q] += (x·a[p])·b[q], the same rounding as the generic
//     loop.
//   - k = 3 (4-mode tensors) is reassociated. It builds w = b ⊗ c once
//     in bufA, then adds (x·a[p])·w to each block of dst of length
//     |b|·|c|: the innermost loop runs over |b|·|c| elements instead of
//     |c|, at the price of rounding (x·a)·(b·c) rather than ((x·a)·b)·c.
//   - k >= 4 builds the prefix Kronecker product of the first k-1 rows
//     in bufA/bufB, then adds the last row into consecutive segments of
//     dst.
//
// bufA and bufB must hold kronScratchLen of the row lengths. A zero
// coefficient (x·a[p] for k <= 3, a prefix entry for k >= 4) skips its
// block. The operation order depends only on the row lengths, so a
// result is bitwise identical for every thread count and schedule.
func accumKron(dst []float64, x float64, rows [][]float64, bufA, bufB []float64) {
	switch len(rows) {
	case 0:
		dst[0] += x
	case 1:
		r := rows[0]
		dense.Axpy(x, r, dst[:len(r)])
	case 2:
		addOuter(dst, x, rows[0], rows[1])
	case 3:
		b, c := rows[1], rows[2]
		w := bufA[:len(b)*len(c)]
		for q, bv := range b {
			wq := w[q*len(c) : (q+1)*len(c) : (q+1)*len(c)]
			wq = wq[:len(c)]
			for s, cv := range c {
				wq[s] = bv * cv
			}
		}
		addOuter(dst, x, rows[0], w)
	default:
		accumKronPrefix(dst, x, rows, bufA, bufB)
	}
}

// addOuter adds (x·a[p])·w[j] to dst[p·|w| + j] for every p and j: the
// rank-1 update x·(a ⊗ w). Blocks go in pairs so each load of w feeds
// two of them; a pair with a zero coefficient falls back to per-block
// Axpy, which skips it.
func addOuter(dst []float64, x float64, a, w []float64) {
	n := len(w)
	p := 0
	for ; p+2 <= len(a); p += 2 {
		s0, s1 := x*a[p], x*a[p+1]
		o := p * n
		d0 := dst[o : o+n : o+n]
		d1 := dst[o+n : o+2*n : o+2*n]
		if s0 == 0 || s1 == 0 {
			dense.Axpy(s0, w, d0)
			dense.Axpy(s1, w, d1)
			continue
		}
		d0 = d0[:len(w)]
		d1 = d1[:len(w)]
		for j, wv := range w {
			d0[j] += s0 * wv
			d1[j] += s1 * wv
		}
	}
	if p < len(a) {
		dense.Axpy(x*a[p], w, dst[p*n:p*n+n])
	}
}

// accumKronPrefix is the generic loop for k >= 4 rows: the prefix
// Kronecker product x·(rows[0] ⊗ ... ⊗ rows[k-2]) is built in the
// scratch buffers, then the last row is added into consecutive
// segments of dst.
func accumKronPrefix(dst []float64, x float64, rows [][]float64, bufA, bufB []float64) {
	k := len(rows)
	cur := bufA[:1]
	cur[0] = x
	for j := 0; j < k-1; j++ {
		r := rows[j]
		nxt := bufB[:len(cur)*len(r)]
		for p, c := range cur {
			base := p * len(r)
			for q, rv := range r {
				nxt[base+q] = c * rv
			}
		}
		cur, bufA, bufB = nxt, bufB, bufA
	}
	last := rows[k-1]
	rl := len(last)
	for p, c := range cur {
		if c == 0 {
			continue
		}
		dense.Axpy(c, last, dst[p*rl:(p+1)*rl])
	}
}

// kronMode is one contracted mode of a TTMc call: the mode's index
// stream over the nonzeros, and its factor's row-major data and row
// length.
type kronMode struct {
	idx  []int32
	data []float64
	cols int
}

// kron is the contraction of one TTMc call, resolved once per call so
// the per-nonzero gather makes no mode test and no Matrix.Row call.
type kron struct {
	modes      []kronMode
	val        []float64
	scratchLen int
}

// newKron resolves the contraction of x with every factor outside the
// modes [lo, hi), in ascending mode order (the flat kernels keep one
// mode, lo = n and hi = n+1; dimension-tree leaves keep a range).
func newKron(x *tensor.COO, u []*dense.Matrix, lo, hi int) *kron {
	order := x.Order()
	k := &kron{modes: make([]kronMode, 0, order-(hi-lo)), val: x.Val}
	lens := make([]int, 0, 8)
	for m := 0; m < order; m++ {
		if m >= lo && m < hi {
			continue
		}
		k.modes = append(k.modes, kronMode{idx: x.Idx[m], data: u[m].Data, cols: u[m].Cols})
		lens = append(lens, u[m].Cols)
	}
	k.scratchLen = kronScratchLen(lens)
	return k
}

// kronScratch is one worker's scratch for kron.add.
type kronScratch struct {
	rows       [][]float64
	bufA, bufB []float64
}

// scratch returns worker w's scratch in scs, allocating its buffers on
// the worker's first use.
func (k *kron) scratch(scs []kronScratch, w int) *kronScratch {
	sc := &scs[w]
	if sc.rows == nil {
		n := k.scratchLen
		buf := make([]float64, 2*n)
		sc.rows, sc.bufA, sc.bufB = make([][]float64, len(k.modes)), buf[:n:n], buf[n:]
	}
	return sc
}

// add accumulates nonzero id's contribution x_id · ⊗_j U_j(i_j, :) into
// dst.
func (k *kron) add(dst []float64, id int, sc *kronScratch) {
	for j := range k.modes {
		m := &k.modes[j]
		o := int(m.idx[id]) * m.cols
		sc.rows[j] = m.data[o : o+m.cols : o+m.cols]
	}
	accumKron(dst, k.val[id], sc.rows, sc.bufA, sc.bufB)
}
