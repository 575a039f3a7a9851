// Command perfbench is the repository benchmark. It generates a seeded
// input, runs one workload through the library's public entry points
// (tensor.ReadTNSFile, core.NewPlan/NewEngine/Run/Update,
// dist.MakePartition/DecomposeWorld) for a fixed time, checks every op,
// and prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics, as the last line of standard output:
//
//	bash perfbench/run.sh --workload cold-4mode --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json lists the workloads and metrics; spec.json holds each
// workload's configuration and what each metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

//go:embed spec.json
var specJSON []byte

// The benchmark runs from the repository root, where BENCHMARK.json
// lists the workloads and metrics.
const benchmarkJSON = "BENCHMARK.json"

// Every cold solve runs exactly maxIters sweeps, the paper's count;
// Engine.Update still stops on the tolerance.
const maxIters = 5

// threads is the compute thread count of every shared-memory solve,
// check and replay: the load stays within a 2-core host.
const threads = 2

// metricSpec is one metric: name, unit, direction and bound from
// BENCHMARK.json, layer and reach from spec.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	metricInfo
}

// metricInfo is what spec.json adds to a metric.
type metricInfo struct {
	Layer string   `json:"layer"`
	Moves []string `json:"moves"`
	On    []string `json:"on"`
}

// workloadConfig is a workload's configuration in spec.json.
type workloadConfig struct {
	Tensor    tensorSpec `json:"tensor"`
	Ranks     []int      `json:"ranks"`
	TTMc      string     `json:"ttmc"`
	DeltaNNZ  int        `json:"delta_nnz"`
	Processes int        `json:"processes"`
}

type workloadSpec struct {
	Name   string         `json:"name"`
	Why    string         `json:"why"`
	Config workloadConfig `json:"-"`
}

type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

// loadSpec reads the workload and metric lists from the BENCHMARK.json
// at path and completes each entry from spec.json, which must name
// exactly the same workloads and metrics.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var extra struct {
		Workloads map[string]workloadConfig `json:"workloads"`
		EndToEnd  map[string]metricInfo     `json:"end_to_end"`
		PerLayer  map[string]metricInfo     `json:"per_layer"`
	}
	if err := json.Unmarshal(specJSON, &extra); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	if err := sameNames("workloads", s.Workloads, extra.Workloads, func(w workloadSpec) string { return w.Name }); err != nil {
		return nil, err
	}
	if err := sameNames("end_to_end", s.EndToEnd, extra.EndToEnd, func(m metricSpec) string { return m.Name }); err != nil {
		return nil, err
	}
	if err := sameNames("per_layer", s.PerLayer, extra.PerLayer, func(m metricSpec) string { return m.Name }); err != nil {
		return nil, err
	}
	for i := range s.Workloads {
		s.Workloads[i].Config = extra.Workloads[s.Workloads[i].Name]
	}
	for i := range s.EndToEnd {
		s.EndToEnd[i].metricInfo = extra.EndToEnd[s.EndToEnd[i].Name]
	}
	for i := range s.PerLayer {
		s.PerLayer[i].metricInfo = extra.PerLayer[s.PerLayer[i].Name]
	}
	return &s, nil
}

// sameNames requires the names listed in BENCHMARK.json and the keys of
// spec.json's section to be the same set.
func sameNames[T, V any](section string, list []T, keyed map[string]V, name func(T) string) error {
	listed := map[string]bool{}
	for _, e := range list {
		n := name(e)
		if _, ok := keyed[n]; !ok {
			return fmt.Errorf("%s: %q is in %s but not in spec.json", section, n, benchmarkJSON)
		}
		listed[n] = true
	}
	for n := range keyed {
		if !listed[n] {
			return fmt.Errorf("%s: %q is in spec.json but not in %s", section, n, benchmarkJSON)
		}
	}
	return nil
}

func (s *benchSpec) workload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	// Generated inputs and trace files stay in the checkout's build
	// directory.
	if err := run(*workload, *seed, *seconds, *traceFlag == 1, benchmarkJSON, filepath.Join(".bench_build", "work")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, specPath, workDir string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	w, err := spec.workload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	b, err := newBench(w, seed, time.Duration(seconds*float64(time.Second)), traced, workDir)
	if err != nil {
		return err
	}
	defer b.cleanup()
	if err := b.run(); err != nil {
		return err
	}
	rep := b.report(spec)
	b.summary(os.Stdout, spec, rep)
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// samples collects per-op measurements by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median returns the median of v (0 for no samples).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// metrics returns the metrics the run prints and their samples: the
// end-to-end ones untraced, the per-layer ones traced.
func (b *bench) metrics(spec *benchSpec) ([]metricSpec, samples) {
	if b.traced {
		return spec.PerLayer, b.layers
	}
	return spec.EndToEnd, b.e2e
}

// report builds the result line: the end-to-end metrics untraced, the
// per-layer metrics traced. A layer the workload does not run reports 0
// (spec.json lists where each metric is measured).
func (b *bench) report(spec *benchSpec) report {
	rep := report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	list, vals := b.metrics(spec)
	for _, m := range list {
		rep.Metrics[m.Name] = metric{Value: median(vals[m.Name]), Unit: m.Unit}
	}
	return rep
}

// summary prints every metric with its unit and sample count, the error
// rate, and the op latency at the highest percentile that has at least
// ten samples beyond it.
func (b *bench) summary(f *os.File, spec *benchSpec, rep report) {
	fmt.Fprintf(f, "workload %s seed %d trace %v: %d ops attempted, %d failed, error_rate %.4g\n",
		b.w.Name, b.seed, b.traced, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	list, vals := b.metrics(spec)
	for _, m := range list {
		fmt.Fprintf(f, "  %-28s %14.6g %-9s n=%d\n", m.Name, rep.Metrics[m.Name].Value, m.Unit, len(vals[m.Name]))
	}
	if ops := b.e2e["op_s_p50"]; !b.traced {
		for _, q := range []float64{0.99, 0.9} {
			if float64(len(ops))*(1-q) >= 10 {
				fmt.Fprintf(f, "  op_s_p%-22g %14.6g s         n=%d\n", 100*q, quantile(ops, q), len(ops))
				break
			}
		}
	}
	if b.tr != nil {
		self := b.tr.selfByName()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(f, "  self time per span name (replay excluded):")
		for _, n := range names {
			fmt.Fprintf(f, "    %-28s %10.4f s\n", n, self[n])
		}
	}
}
