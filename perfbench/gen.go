package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hypertensor/internal/tensor"
)

// tensorSpec describes one generated input tensor.
type tensorSpec struct {
	Dims []int   `json:"dims"`
	NNZ  int     `json:"nnz"`
	Skew float64 `json:"zipf"` // P(slice of popularity rank k) ∝ (k+1)^-Skew, per mode
}

// maxOrder bounds the tensor order the generator and checks handle; the
// workloads use orders 3 and 4.
const maxOrder = 4

// coordKey identifies a nonzero by its coordinates (unused modes zero).
type coordKey [maxOrder]int32

func keyOf(x *tensor.COO, i int) coordKey {
	var k coordKey
	for m := range x.Dims {
		k[m] = x.Idx[m][i]
	}
	return k
}

// maxEntryShare is the largest share of ‖X‖² one entry may hold. Above it
// a tensor is close to rank one and the fit and TRSVD costs stop
// describing a real input.
const maxEntryShare = 1e-3

// zipfSampler draws indices in [0, n) with P(popularity rank k) ∝
// (k+1)^-s. Ranks map to indices through a seeded permutation, so the
// popular slices are scattered over the mode as in real data.
type zipfSampler struct {
	cdf  []float64
	perm []int32
}

func newZipfSampler(n int, s float64, rng *rand.Rand) *zipfSampler {
	z := &zipfSampler{cdf: make([]float64, n), perm: make([]int32, n)}
	var acc float64
	for k := range z.cdf {
		acc += math.Pow(float64(k+1), -s)
		z.cdf[k] = acc
		z.perm[k] = int32(k)
	}
	rng.Shuffle(n, func(i, j int) { z.perm[i], z.perm[j] = z.perm[j], z.perm[i] })
	return z
}

func (z *zipfSampler) draw(rng *rand.Rand) int32 {
	u := rng.Float64() * z.cdf[len(z.cdf)-1]
	k := sort.SearchFloat64s(z.cdf, u)
	if k == len(z.cdf) {
		k--
	}
	return z.perm[k]
}

// coordSampler draws Zipf-skewed coordinates with one sampler per mode.
type coordSampler []*zipfSampler

func newCoordSampler(spec tensorSpec, rng *rand.Rand) coordSampler {
	s := make(coordSampler, len(spec.Dims))
	for m, d := range spec.Dims {
		s[m] = newZipfSampler(d, spec.Skew, rng)
	}
	return s
}

func (s coordSampler) draw(rng *rand.Rand) coordKey {
	var k coordKey
	for m, z := range s {
		k[m] = z.draw(rng)
	}
	return k
}

// drawValue is 1+|N(0,1)|: positive, so no entry cancels, and light
// tailed, so no entry dominates the norm.
func drawValue(rng *rand.Rand) float64 { return 1 + math.Abs(rng.NormFloat64()) }

// generate draws spec.NNZ distinct coordinates (a repeated coordinate
// keeps its first value; values are never summed) with i.i.d. values.
// It fails when fewer nonzeros than requested can be drawn or one entry
// holds maxEntryShare or more of ‖X‖². The same seed gives the same
// tensor.
func generate(spec tensorSpec, seed int64) (*tensor.COO, error) {
	if len(spec.Dims) < 1 || len(spec.Dims) > maxOrder {
		return nil, fmt.Errorf("gen: order %d outside [1, %d]", len(spec.Dims), maxOrder)
	}
	rng := rand.New(rand.NewSource(seed))
	sampler := newCoordSampler(spec, rng)
	x := tensor.NewCOO(spec.Dims, spec.NNZ)
	seen := make(map[coordKey]struct{}, spec.NNZ)
	for draws := 0; x.NNZ() < spec.NNZ && draws < 8*spec.NNZ; draws++ {
		k := sampler.draw(rng)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		for m := range spec.Dims {
			x.Idx[m] = append(x.Idx[m], k[m])
		}
		x.Val = append(x.Val, drawValue(rng))
	}
	if x.NNZ() < spec.NNZ {
		return nil, fmt.Errorf("gen: delivered %d of %d requested nonzeros", x.NNZ(), spec.NNZ)
	}
	if err := checkEntryShare(x); err != nil {
		return nil, err
	}
	return x, nil
}

// checkEntryShare rejects a tensor in which one entry holds
// maxEntryShare or more of ‖X‖².
func checkEntryShare(x *tensor.COO) error {
	var sum, top float64
	for _, v := range x.Val {
		sum += v * v
		top = math.Max(top, v*v)
	}
	if top >= maxEntryShare*sum {
		return fmt.Errorf("gen: one entry holds %.3g%% of ‖X‖² (limit %.3g%%)", 100*top/sum, 100*maxEntryShare)
	}
	return nil
}

// deltaStream generates the update stream of the ingest workload and
// keeps the reference merge the engine's tensor is checked against.
// Even deltas change the values of existing nonzeros; odd deltas insert
// new coordinates drawn from the tensor's own Zipf distribution. No
// delta repeats a coordinate, so the reference merge is a plain sum.
type deltaStream struct {
	rng     *rand.Rand
	sampler coordSampler
	dims    []int
	size    int
	n       int // deltas produced so far
	ref     map[coordKey]float64
	keys    []coordKey // ref's coordinates, for drawing existing ones
}

func newDeltaStream(x *tensor.COO, spec tensorSpec, size int, seed int64) *deltaStream {
	rng := rand.New(rand.NewSource(seed))
	s := &deltaStream{
		rng: rng, sampler: newCoordSampler(spec, rng), dims: x.Dims, size: size,
		ref: make(map[coordKey]float64, x.NNZ()), keys: make([]coordKey, x.NNZ()),
	}
	for i := range x.Val {
		k := keyOf(x, i)
		s.ref[k] = x.Val[i]
		s.keys[i] = k
	}
	return s
}

// next returns the next delta and applies it to the reference. It fails
// when the tensor has too few free or existing coordinates to fill one.
func (s *deltaStream) next() (*tensor.COO, error) {
	d := tensor.NewCOO(s.dims, s.size)
	inDelta := make(map[coordKey]struct{}, s.size)
	add := func(k coordKey, v float64) {
		inDelta[k] = struct{}{}
		for m := range s.dims {
			d.Idx[m] = append(d.Idx[m], k[m])
		}
		d.Val = append(d.Val, v)
	}
	insert := s.n%2 == 1
	for tries := 0; d.NNZ() < s.size; tries++ {
		if tries > 64*s.size {
			return nil, fmt.Errorf("gen: delta %d found %d of %d distinct coordinates", s.n, d.NNZ(), s.size)
		}
		if insert {
			k := s.sampler.draw(s.rng)
			if _, old := s.ref[k]; old {
				continue
			}
			if _, dup := inDelta[k]; dup {
				continue
			}
			add(k, drawValue(s.rng))
			continue
		}
		k := s.keys[s.rng.Intn(len(s.keys))]
		if _, dup := inDelta[k]; dup {
			continue
		}
		add(k, 0.25*s.rng.NormFloat64())
	}
	for i := range d.Val {
		k := keyOf(d, i)
		if _, old := s.ref[k]; !old {
			s.keys = append(s.keys, k)
		}
		s.ref[k] += d.Val[i]
	}
	s.n++
	return d, nil
}

// checkEqual reports whether x holds exactly the reference's entries.
func (s *deltaStream) checkEqual(x *tensor.COO) error {
	if x.NNZ() != len(s.ref) {
		return fmt.Errorf("engine tensor has %d nonzeros, reference merge %d", x.NNZ(), len(s.ref))
	}
	for i, v := range x.Val {
		k := keyOf(x, i)
		want, ok := s.ref[k]
		if !ok {
			return fmt.Errorf("engine tensor holds %v, absent from the reference merge", k)
		}
		if v != want {
			return fmt.Errorf("engine tensor holds %v = %v, reference merge %v", k, v, want)
		}
	}
	return nil
}
