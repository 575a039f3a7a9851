package hypertensor_test

import (
	"fmt"
	"math"

	"hypertensor"
)

// ExampleDecompose_format shows the one storage format every
// decomposition runs on: the caller's coordinate (COO) tensor, used as
// is. Its index costs 4 bytes per mode per nonzero, there is no
// conversion phase, and both TTMc strategies read the same storage, so
// their fits agree to rounding.
func ExampleDecompose_format() {
	x := hypertensor.NewSparseTensor([]int{40, 30, 20}, 0)
	for i := 0; i < 40; i++ {
		for j := 0; j < 5; j++ {
			x.Append([]int{i, (i*3 + j) % 30, (i + j*j) % 20}, float64(1+j))
		}
	}
	x.SortDedup()

	opts := hypertensor.Options{
		Ranks:    []int{4, 4, 4},
		MaxIters: 30,
		Tol:      1e-9,
		Seed:     1,
	}
	var fits []float64
	for _, run := range []struct {
		name     string
		strategy hypertensor.TTMcStrategy
	}{{"flat", hypertensor.TTMcFlat}, {"dtree", hypertensor.TTMcDTree}} {
		opts.TTMc = run.strategy
		dec, err := hypertensor.Decompose(x, opts)
		if err != nil {
			panic(err)
		}
		fits = append(fits, dec.Fit)
		fmt.Printf("%-5v %4.1f index B/nnz, convert %v\n",
			run.name, float64(dec.IndexBytes)/float64(x.NNZ()), dec.Timings.Convert)
	}
	fmt.Printf("fits agree to 1e-8: %v\n", math.Abs(fits[0]-fits[1]) <= 1e-8)
	// Output:
	// flat  12.0 index B/nnz, convert 0s
	// dtree 12.0 index B/nnz, convert 0s
	// fits agree to 1e-8: true
}
