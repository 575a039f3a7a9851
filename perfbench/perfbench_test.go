package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := tensorSpec{Dims: []int{50, 40, 30}, NNZ: 20000, Skew: 0.8}
	a, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != spec.NNZ {
		t.Fatalf("delivered %d nonzeros, want %d", a.NNZ(), spec.NNZ)
	}
	if !slices.Equal(a.Val, b.Val) || !slices.Equal(a.Idx[0], b.Idx[0]) || !slices.Equal(a.Idx[2], b.Idx[2]) {
		t.Fatal("the same seed gave different tensors")
	}
	if slices.Equal(a.Val, c.Val) {
		t.Fatal("different seeds gave the same values")
	}
	seen := map[coordKey]bool{}
	for i := range a.Val {
		k := keyOf(a, i)
		if seen[k] {
			t.Fatalf("coordinate %v drawn twice", k)
		}
		seen[k] = true
		if a.Val[i] < 1 {
			t.Fatalf("value %v below 1", a.Val[i])
		}
	}

	s1 := newDeltaStream(a, spec, 30, 7)
	s2 := newDeltaStream(b, spec, 30, 7)
	for i := 0; i < 4; i++ {
		d1, err1 := s1.next()
		d2, err2 := s2.next()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !slices.Equal(d1.Val, d2.Val) || !slices.Equal(d1.Idx[1], d2.Idx[1]) {
			t.Fatalf("delta %d differs between equal seeds", i)
		}
	}
}

func TestGenerateGuards(t *testing.T) {
	// 16 cells cannot hold 20 distinct nonzeros.
	if _, err := generate(tensorSpec{Dims: []int{4, 4}, NNZ: 20}, 1); err == nil || !strings.Contains(err.Error(), "delivered") {
		t.Fatalf("short delivery not reported: %v", err)
	}
	// With 100 nonzeros every entry holds about 1% of ‖X‖².
	if _, err := generate(tensorSpec{Dims: []int{100, 100}, NNZ: 100}, 1); err == nil || !strings.Contains(err.Error(), "‖X‖²") {
		t.Fatalf("dominant entry not reported: %v", err)
	}
}

// TestDeltaStreamReference checks the reference merge the ingest check
// trusts: value deltas add to existing entries, insert deltas append.
func TestDeltaStreamReference(t *testing.T) {
	spec := tensorSpec{Dims: []int{50, 40, 30}, NNZ: 20000, Skew: 0.8}
	x, err := generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := newDeltaStream(x, spec, 40, 3)
	want := x.Clone()
	for i := 0; i < 4; i++ {
		d, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		info, err := want.Merge(d)
		if err != nil {
			t.Fatal(err)
		}
		if inserted := info.Appended > 0; inserted != (i%2 == 1) {
			t.Fatalf("delta %d appended %d nonzeros", i, info.Appended)
		}
	}
	if err := s.checkEqual(want); err != nil {
		t.Fatal(err)
	}
	want.Val[0] += 1
	if err := s.checkEqual(want); err == nil {
		t.Fatal("a changed value passed the reference check")
	}
}

// benchmarkPath is BENCHMARK.json seen from the package directory.
const benchmarkPath = "../" + benchmarkJSON

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpec loads BENCHMARK.json with spec.json and checks the metric
// names and what spec.json says about each metric.
func TestSpec(t *testing.T) {
	spec, err := loadSpec(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		if m.Layer == "" || len(m.On) == 0 {
			t.Errorf("per-layer metric %s names no layer or workload", m.Name)
		}
		for _, e := range m.Moves {
			if !slices.ContainsFunc(spec.EndToEnd, func(x metricSpec) bool { return x.Name == e }) {
				t.Errorf("per-layer metric %s moves unknown metric %s", m.Name, e)
			}
		}
	}
}

// TestSpecNamesMustMatch requires loadSpec to refuse a BENCHMARK.json
// that lists a metric spec.json does not know, or leaves one out.
func TestSpecNamesMustMatch(t *testing.T) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(m []any) []any{
		func(m []any) []any { return m[1:] },
		func(m []any) []any {
			return append(m, map[string]any{"name": "tensor.unknown_s", "unit": "s", "better": "lower"})
		},
	} {
		var bj map[string]any
		if err := json.Unmarshal(raw, &bj); err != nil {
			t.Fatal(err)
		}
		bj["per_layer"] = edit(bj["per_layer"].([]any))
		out, err := json.Marshal(bj)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), benchmarkJSON)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadSpec(path); err == nil || !strings.Contains(err.Error(), "per_layer") {
			t.Fatalf("mismatched metric lists not reported: %v", err)
		}
	}
}

// shrink replaces a workload's tensor with a small one of the same order.
func shrink(w workloadSpec) workloadSpec {
	switch len(w.Config.Tensor.Dims) {
	case 4:
		w.Config.Tensor.Dims = []int{30, 40, 50, 20}
	default:
		w.Config.Tensor.Dims = []int{500, 120, 80}
	}
	w.Config.Tensor.NNZ = 20000
	w.Config.DeltaNNZ = 40
	return w
}

// TestWorkloadSmoke runs every workload on a small input, untraced and
// traced, and requires every metric of the mode, no failed op, and each
// per-layer metric measured exactly on the workloads spec.json names.
func TestWorkloadSmoke(t *testing.T) {
	spec, err := loadSpec(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			b, err := newBench(shrink(w), 5, 0, traced, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := b.run(); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			rep := b.report(spec)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minOps {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			list, vals := b.metrics(spec)
			if len(rep.Metrics) != len(list) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(rep.Metrics), len(list))
			}
			for _, m := range list {
				measured := len(vals[m.Name]) > 0
				if want := !traced || slices.Contains(m.On, w.Name); measured != want {
					t.Errorf("%s traced=%v: metric %s measured=%v, want %v", w.Name, traced, m.Name, measured, want)
				}
				if !traced && rep.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, rep.Metrics[m.Name].Value)
				}
			}
		}
	}
}

// TestRecomputeCore compares the check's core with the definition
// G(r) = Σ x·Π_n u_n(i_n, r_n), with the shortest mode inside.
func TestRecomputeCore(t *testing.T) {
	dims := []int{7, 3, 6, 5}
	x := tensor.NewCOO(dims, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		x.Append([]int{rng.Intn(7), rng.Intn(3), rng.Intn(6), rng.Intn(5)}, rng.NormFloat64())
	}
	ranks := []int{2, 3, 2, 4}
	u := make([]*dense.Matrix, len(ranks))
	for n, r := range ranks {
		u[n] = dense.RandomNormal(dims[n], r, rng)
	}
	got := recomputeCore(x, u, 2)
	want := tensor.NewDense(ranks)
	coord := make([]int, 4)
	for i := range x.Val {
		x.Coord(i, coord)
		for r0 := 0; r0 < ranks[0]; r0++ {
			for r1 := 0; r1 < ranks[1]; r1++ {
				for r2 := 0; r2 < ranks[2]; r2++ {
					for r3 := 0; r3 < ranks[3]; r3++ {
						v := x.Val[i] * u[0].At(coord[0], r0) * u[1].At(coord[1], r1) * u[2].At(coord[2], r2) * u[3].At(coord[3], r3)
						want.Data[want.Offset([]int{r0, r1, r2, r3})] += v
					}
				}
			}
		}
	}
	for i := range want.Data {
		if d := want.Data[i] - got.Data[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("core entry %d: got %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}
