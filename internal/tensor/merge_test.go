package tensor

import "testing"

func mkCOO(t *testing.T, dims []int, entries [][3]int, vals []float64) *COO {
	t.Helper()
	x := NewCOO(dims, len(entries))
	for i, e := range entries {
		if err := x.AppendChecked([]int{e[0], e[1], e[2]}, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func TestCOOMergeSemantics(t *testing.T) {
	dims := []int{4, 5, 6}
	x := mkCOO(t, dims,
		[][3]int{{0, 0, 0}, {1, 2, 3}, {3, 4, 5}},
		[]float64{1, 2, 3})
	d := mkCOO(t, dims,
		[][3]int{{1, 2, 3}, {1, 2, 3}, {2, 2, 2}, {0, 1, 0}},
		[]float64{5, 5, 7, 9})
	info, err := x.Merge(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.OldNNZ != 3 || info.Appended != 2 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Updated) != 1 || info.Updated[0] != 1 {
		t.Fatalf("updated positions %v", info.Updated)
	}
	// Stability: existing positions and coordinates unchanged.
	if x.Idx[0][1] != 1 || x.Idx[1][1] != 2 || x.Idx[2][1] != 3 {
		t.Fatal("existing nonzero moved")
	}
	if x.Val[1] != 12 { // 2 + 5 + 5 (in-delta duplicate summed)
		t.Fatalf("duplicate sum wrong: %v", x.Val[1])
	}
	if x.NNZ() != 5 {
		t.Fatalf("nnz %d", x.NNZ())
	}
	// Appended in delta-canonical (sorted) order: (0,1,0) before (2,2,2).
	if x.Idx[0][3] != 0 || x.Idx[1][3] != 1 || x.Val[3] != 9 {
		t.Fatal("first append wrong")
	}
	if x.Idx[0][4] != 2 || x.Val[4] != 7 {
		t.Fatal("second append wrong")
	}
	// Delta not mutated.
	if d.NNZ() != 4 {
		t.Fatal("caller's delta was mutated")
	}
}

func TestCOOMergeZeroSumKeepsEntry(t *testing.T) {
	dims := []int{3, 3, 3}
	x := mkCOO(t, dims, [][3]int{{1, 1, 1}}, []float64{2})
	d := mkCOO(t, dims, [][3]int{{1, 1, 1}}, []float64{-2})
	info, err := x.Merge(d)
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != 1 || x.Val[0] != 0 {
		t.Fatalf("cancelled entry must stay with value 0, got nnz=%d val=%v", x.NNZ(), x.Val)
	}
	if len(info.Updated) != 1 {
		t.Fatalf("info %+v", info)
	}
}

func TestCOOMergeValidation(t *testing.T) {
	dims := []int{4, 4, 4}
	x := mkCOO(t, dims, [][3]int{{0, 0, 0}}, []float64{1})
	ref := x.Clone()

	cases := []*COO{
		nil,
		NewCOO([]int{4, 4}, 0),    // order mismatch
		NewCOO([]int{4, 4, 5}, 0), // dim mismatch
	}
	bad := NewCOO(dims, 1)
	bad.Idx[0] = append(bad.Idx[0], 4) // out of range
	bad.Idx[1] = append(bad.Idx[1], 0)
	bad.Idx[2] = append(bad.Idx[2], 0)
	bad.Val = append(bad.Val, 1)
	cases = append(cases, bad)
	neg := NewCOO(dims, 1)
	neg.Idx[0] = append(neg.Idx[0], -1)
	neg.Idx[1] = append(neg.Idx[1], 0)
	neg.Idx[2] = append(neg.Idx[2], 0)
	neg.Val = append(neg.Val, 1)
	cases = append(cases, neg)

	for i, d := range cases {
		if _, err := x.Merge(d); err == nil {
			t.Fatalf("case %d: bad delta accepted", i)
		}
		if x.NNZ() != ref.NNZ() || x.Val[0] != ref.Val[0] {
			t.Fatalf("case %d: failed merge mutated the receiver", i)
		}
	}
}

// TestCOOMergeMatchesSortDedup: merging then canonicalizing equals
// concatenating then canonicalizing.
func TestCOOMergeMatchesSortDedup(t *testing.T) {
	dims := []int{6, 7, 8}
	x := mkCOO(t, dims,
		[][3]int{{0, 0, 0}, {5, 6, 7}, {1, 2, 3}, {2, 2, 2}},
		[]float64{1, 2, 3, 4})
	d := mkCOO(t, dims,
		[][3]int{{1, 2, 3}, {0, 1, 0}, {5, 6, 7}, {4, 4, 4}},
		[]float64{10, 20, 30, 40})

	concat := x.Clone()
	for i := 0; i < d.NNZ(); i++ {
		concat.Idx[0] = append(concat.Idx[0], d.Idx[0][i])
		concat.Idx[1] = append(concat.Idx[1], d.Idx[1][i])
		concat.Idx[2] = append(concat.Idx[2], d.Idx[2][i])
		concat.Val = append(concat.Val, d.Val[i])
	}
	concat.SortDedup()

	if _, err := x.Merge(d); err != nil {
		t.Fatal(err)
	}
	x.SortDedup()
	if x.NNZ() != concat.NNZ() {
		t.Fatalf("nnz %d vs %d", x.NNZ(), concat.NNZ())
	}
	for i := 0; i < x.NNZ(); i++ {
		for m := range dims {
			if x.Idx[m][i] != concat.Idx[m][i] {
				t.Fatalf("coordinate mismatch at %d", i)
			}
		}
		if x.Val[i] != concat.Val[i] {
			t.Fatalf("value mismatch at %d: %v vs %v", i, x.Val[i], concat.Val[i])
		}
	}
}

// TestCOOMergeIndexed: a retained index must produce exactly what the
// one-shot path produces across a stream of deltas, and must refuse a
// foreign tensor.
func TestCOOMergeIndexed(t *testing.T) {
	dims := []int{6, 7, 8}
	mk := func() *COO {
		return mkCOO(t, dims,
			[][3]int{{0, 0, 0}, {5, 6, 7}, {1, 2, 3}},
			[]float64{1, 2, 3})
	}
	a, b := mk(), mk()
	ix := a.NewMergeIndex()
	for step := 0; step < 3; step++ {
		d := mkCOO(t, dims,
			[][3]int{{step, 2, 3}, {1, 2, 3}, {step, step, step}},
			[]float64{1, 2, 3})
		ia, err := a.MergeIndexed(d, ix)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := b.Merge(d)
		if err != nil {
			t.Fatal(err)
		}
		if ia.Appended != ib.Appended || len(ia.Updated) != len(ib.Updated) {
			t.Fatalf("step %d: indexed %+v vs one-shot %+v", step, ia, ib)
		}
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("indexed stream diverged: %d vs %d nonzeros", a.NNZ(), b.NNZ())
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatalf("value %d diverged", i)
		}
	}
	if _, err := b.MergeIndexed(mk(), ix); err == nil {
		t.Fatal("foreign merge index accepted")
	}
}

// TestMergeOrderOne covers the order-1 corner: one update in place,
// one append at the tail.
func TestMergeOrderOne(t *testing.T) {
	x := NewCOO([]int{10}, 0)
	x.Append([]int{2}, 1)
	x.Append([]int{7}, 2)
	x.SortDedup()
	d := NewCOO([]int{10}, 0)
	d.Append([]int{5}, 3)
	d.Append([]int{7}, 4)
	info, err := x.Merge(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Appended != 1 || len(info.Updated) != 1 || info.Updated[0] != 1 {
		t.Fatalf("info %+v", info)
	}
	want := map[int32]float64{2: 1, 5: 3, 7: 6}
	if x.NNZ() != 3 {
		t.Fatalf("coo nnz %d", x.NNZ())
	}
	for i := 0; i < x.NNZ(); i++ {
		if v := want[x.Idx[0][i]]; v != x.Val[i] {
			t.Fatalf("order-1 entry %d wrong", i)
		}
	}
}
