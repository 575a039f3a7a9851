package ttm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/symbolic"
)

// accumKron must add x·(rows[0] ⊗ ... ⊗ rows[k-1]) for every row count
// and shape, including shapes whose suffix scratch (the k=3 w = b ⊗ c)
// exceeds the prefix scratch. The reference builds the Kronecker
// product of [x], rows... with KronRows, which rounds in the
// left-to-right order ((x·a)·b)·c..., and adds it with Axpy. The fused
// k <= 2 kernels and the generic k >= 4 loop keep that order and must
// match bitwise; the reassociated k = 3 kernel rounds x·a·(b·c) and
// must match to 1e-14 relative.
func TestAccumKronMatchesReference(t *testing.T) {
	shapes := [][]int{
		{},
		{1}, {5},
		{1, 1}, {3, 4}, {1, 5}, {6, 1},
		{2, 7, 6}, {1, 5, 4}, {6, 1, 2}, {1, 1, 1}, {5, 5, 5},
		{2, 3, 1, 4}, {3, 2, 5, 2}, {1, 4, 4, 3},
	}
	rng := rand.New(rand.NewSource(61))
	for _, lens := range shapes {
		for _, tc := range []struct {
			name  string
			x     float64
			zeros bool // zero some row entries
			acc   bool // accumulate onto a nonzero destination
		}{
			{"plain", 1.7, false, false},
			{"zeros", -0.6, true, true},
			{"accumulate", 2.3, false, true},
			{"zero-x", 0, false, true},
		} {
			t.Run(fmt.Sprintf("%v/%s", lens, tc.name), func(t *testing.T) {
				size := 1
				rows := make([][]float64, len(lens))
				for j, l := range lens {
					rows[j] = randVec(rng, l)
					if tc.zeros {
						rows[j][rng.Intn(l)] = 0
					}
					size *= l
				}
				dst := make([]float64, size)
				if tc.acc {
					dst = randVec(rng, size)
				}
				want := append([]float64(nil), dst...)
				term := make([]float64, size)
				KronRows(append([][]float64{{tc.x}}, rows...), term)
				dense.Axpy(1, term, want)

				n := kronScratchLen(lens)
				accumKron(dst, tc.x, rows, make([]float64, n), make([]float64, n))

				scale := 0.0
				for _, v := range want {
					scale = math.Max(scale, math.Abs(v))
				}
				for i := range want {
					if len(lens) == 3 {
						if d := math.Abs(dst[i] - want[i]); d > 1e-14*scale {
							t.Fatalf("entry %d: got %v, want %v (|diff| %.3g, scale %.3g)", i, dst[i], want[i], d, scale)
						}
					} else if dst[i] != want[i] {
						t.Fatalf("entry %d: got %v, want %v bitwise", i, dst[i], want[i])
					}
				}
			})
		}
	}
}

// The scratch helper sizes for whichever of the prefix (generic loop)
// and the last-two-rows suffix (k=3 kernel) buffers is larger.
func TestKronScratchLen(t *testing.T) {
	for _, c := range []struct {
		lens []int
		want int
	}{
		{nil, 1}, {[]int{7}, 1}, {[]int{3, 9}, 3},
		{[]int{2, 7, 6}, 42}, {[]int{6, 1, 2}, 6}, {[]int{5, 5, 5}, 25},
		{[]int{2, 3, 1, 4}, 6}, {[]int{1, 1, 5, 6}, 30},
	} {
		if got := kronScratchLen(c.lens); got != c.want {
			t.Errorf("kronScratchLen(%v) = %d, want %d", c.lens, got, c.want)
		}
	}
}

// benchSweepTTMc times one HOOI sweep's TTMc (one flat call per mode)
// at one thread on a gen.Random tensor (skew s draws each mode's
// indices with Zipf exponent 1+s, 0 draws them uniformly) and reports
// the kernel rate in Gmadd/s (TTMc multiply-adds, the Flops
// convention).
func benchSweepTTMc(b *testing.B, dims []int, nnz int, skew float64, rank int) {
	x := gen.Random(gen.Config{Dims: dims, NNZ: nnz, Skew: skew, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	u := make([]*dense.Matrix, len(dims))
	for m := range u {
		u[m] = dense.RandomNormal(dims[m], rank, rng)
	}
	sym := symbolic.Build(x, 0)
	ys := make([]*dense.Matrix, len(dims))
	var madds int64
	for n := range ys {
		ys[n] = dense.NewMatrix(sym.Modes[n].NumRows(), RowSize(u, n))
		madds += Flops(x.NNZ(), ys[n].Cols)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := range ys {
			TTMc(ys[n], x, &sym.Modes[n], u, 1)
		}
	}
	b.ReportMetric(float64(madds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
}

// BenchmarkTTMc4ModeR5 is the cold-4mode benchmark shape
// (Delicious-like dims and nonzeros, Zipf exponent 1.5, ranks 5): every
// mode contracts three rows, the reassociated k=3 kernel.
func BenchmarkTTMc4ModeR5(b *testing.B) {
	benchSweepTTMc(b, []int{1400, 10640, 340000, 48000}, 280000, 0.5, 5)
}

// BenchmarkTTMc3ModeR10 is the ingest-3mode benchmark shape
// (Netflix-like dims and nonzeros, ranks 10) with uniform indices, as
// gen.Random cannot draw the workload's Zipf exponent 0.7: every mode
// contracts two rows, the fused k=2 kernel.
func BenchmarkTTMc3ModeR10(b *testing.B) {
	benchSweepTTMc(b, []int{9600, 340, 40}, 200000, 0, 10)
}
