package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, threads := range []int{1, 2, 3, 8} {
			seen := make([]atomic.Int32, n)
			For(n, threads, 0, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d threads=%d: index %d visited %d times", n, threads, i, got)
				}
			}
		}
	}
}

func TestForSmallChunk(t *testing.T) {
	const n = 57
	seen := make([]atomic.Int32, n)
	For(n, 4, 1, func(i int) { seen[i].Add(1) })
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d not visited exactly once", i)
		}
	}
}

func TestForRangeCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 101} {
		for _, threads := range []int{1, 2, 4, 16} {
			seen := make([]atomic.Int32, n)
			ForRange(n, threads, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if seen[i].Load() != 1 {
					t.Fatalf("n=%d threads=%d: index %d not visited exactly once", n, threads, i)
				}
			}
		}
	}
}

// Worker ids index per-worker scratch buffers, so they must stay in
// [0, threads) while the chunks still cover the range exactly.
func TestForWorkerIDsDistinct(t *testing.T) {
	const n, threads = 100, 4
	var used [threads]atomic.Int32
	ForDynamicWorker(n, threads, 0, func(w, lo, hi int) {
		if w < 0 || w >= threads {
			t.Errorf("worker id %d out of range", w)
		}
		used[w].Add(int32(hi - lo))
	})
	total := int32(0)
	for i := range used {
		total += used[i].Load()
	}
	if total != n {
		t.Fatalf("workers covered %d of %d elements", total, n)
	}
}

func TestForDynamicWorkerCoverage(t *testing.T) {
	const n = 333
	seen := make([]atomic.Int32, n)
	ForDynamicWorker(n, 3, 7, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, seen[i].Load())
		}
	}
}

// Property: Split produces a disjoint cover of [0,n) with near-equal parts.
func TestSplitProperties(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 5000)
		p := int(pRaw%64) + 1
		prevHi := 0
		minSz, maxSz := 1<<30, -1
		for w := 0; w < p; w++ {
			lo, hi := Split(n, p, w)
			if lo != prevHi || hi < lo {
				return false
			}
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prevHi = hi
		}
		if prevHi != n {
			return false
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultThreads(t *testing.T) {
	if got := DefaultThreads(3); got != 3 {
		t.Fatalf("DefaultThreads(3) = %d", got)
	}
	if got := DefaultThreads(0); got < 1 {
		t.Fatalf("DefaultThreads(0) = %d, want >= 1", got)
	}
	if got := DefaultThreads(-5); got < 1 {
		t.Fatalf("DefaultThreads(-5) = %d, want >= 1", got)
	}
}

func BenchmarkForDynamic(b *testing.B) {
	x := make([]float64, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(len(x), 0, 0, func(j int) { x[j] = float64(j) * 1.5 })
	}
}

// rangeCollector records which contiguous ranges its Range method saw.
type rangeCollector struct {
	mu     sync.Mutex
	seen   []bool
	visits int
}

func (rc *rangeCollector) Range(lo, hi int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.visits++
	for i := lo; i < hi; i++ {
		if rc.seen[i] {
			panic("index covered twice")
		}
		rc.seen[i] = true
	}
}

type indexCollector struct {
	hits []atomic.Int64
}

func (ic *indexCollector) Index(i int) { ic.hits[i].Add(1) }

// ForRangeBody and ForBody must cover every index exactly once for any
// thread count, including the inline single-thread path and n < threads.
func TestForBodyVariantsCoverExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 97, 1000} {
		for _, threads := range []int{1, 2, 4, 9} {
			rc := &rangeCollector{seen: make([]bool, n)}
			ForRangeBody(n, threads, rc)
			for i, ok := range rc.seen {
				if !ok {
					t.Fatalf("ForRangeBody n=%d threads=%d: index %d missed", n, threads, i)
				}
			}
			ic := &indexCollector{hits: make([]atomic.Int64, n)}
			ForBody(n, threads, 0, ic)
			for i := range ic.hits {
				if got := ic.hits[i].Load(); got != 1 {
					t.Fatalf("ForBody n=%d threads=%d: index %d ran %d times", n, threads, i, got)
				}
			}
		}
	}
}

// The pooled runner objects must make steady-state region submission
// allocation-free (the reason ForRangeBody exists).
func TestForRangeBodyDoesNotAllocate(t *testing.T) {
	rc := &rangeCollector{seen: make([]bool, 64)}
	ForRangeBody(64, 4, rc) // warm the shared pool and runner pools
	allocs := testing.AllocsPerRun(50, func() {
		for i := range rc.seen {
			rc.seen[i] = false
		}
		ForRangeBody(64, 4, rc)
	})
	if allocs > 1 {
		t.Fatalf("ForRangeBody allocates %v per region; want 0", allocs)
	}
}

type workerCounter struct {
	calls []atomic.Int64
}

func (wc *workerCounter) Work(w int) { wc.calls[w].Add(1) }

// RunWorker must invoke Work exactly once per worker id, both on the
// pool and on the fallback path (nested region while the pool is busy).
func TestRunWorkerPoolAndFallback(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	wc := &workerCounter{calls: make([]atomic.Int64, 4)}
	p.RunWorker(4, wc)
	for w := range wc.calls {
		if got := wc.calls[w].Load(); got != 1 {
			t.Fatalf("worker %d ran %d times", w, got)
		}
	}
	// Nested: the outer region holds the pool busy, so the inner one
	// must complete on spawned goroutines.
	inner := &workerCounter{calls: make([]atomic.Int64, 3)}
	done := make(chan struct{})
	p.Run(2, func(w int) {
		if w == 0 {
			p.RunWorker(3, inner)
			close(done)
		}
	})
	<-done
	for w := range inner.calls {
		if got := inner.calls[w].Load(); got != 1 {
			t.Fatalf("nested worker %d ran %d times", w, got)
		}
	}
	// threads <= 1 runs inline.
	solo := &workerCounter{calls: make([]atomic.Int64, 1)}
	p.RunWorker(1, solo)
	if solo.calls[0].Load() != 1 {
		t.Fatal("single-thread RunWorker did not run inline")
	}
}
