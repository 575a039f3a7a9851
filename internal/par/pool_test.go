package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllWorkers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var seen [4]atomic.Int32
	p.Run(4, func(w int) { seen[w].Add(1) })
	for w := range seen {
		if got := seen[w].Load(); got != 1 {
			t.Fatalf("worker %d ran %d times", w, got)
		}
	}
}

func TestPoolOversubscribedFallsBack(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var count atomic.Int32
	p.Run(8, func(w int) { count.Add(1) })
	if got := count.Load(); got != 8 {
		t.Fatalf("oversubscribed run invoked %d of 8 workers", got)
	}
}

func TestPoolNestedRunDoesNotDeadlock(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var inner atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(4, func(w int) {
			// A nested region on the same pool must fall back to
			// spawned goroutines instead of waiting for busy workers.
			p.Run(2, func(int) { inner.Add(1) })
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested pool run deadlocked")
	}
	if got := inner.Load(); got != 8 {
		t.Fatalf("nested regions ran %d of 8 bodies", got)
	}
}

func TestPoolRunAfterCloseStillCompletes(t *testing.T) {
	p := NewPool(3)
	p.Close()
	p.Close() // idempotent
	var count atomic.Int32
	p.Run(3, func(w int) { count.Add(1) })
	if got := count.Load(); got != 3 {
		t.Fatalf("post-close run invoked %d of 3 workers", got)
	}
}

// The pool must be reusable across many sweeps without accumulating
// goroutines — the leak mode of per-region fan-out gone wrong.
func TestPoolReuseNoGoroutineLeak(t *testing.T) {
	p := NewPool(8)
	warm := func() {
		var n atomic.Int32
		p.Run(8, func(w int) { n.Add(1) })
	}
	warm()
	runtime.GC()
	base := runtime.NumGoroutine()
	for sweep := 0; sweep < 200; sweep++ {
		warm()
	}
	runtime.GC()
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("goroutines grew from %d to %d across 200 pooled sweeps", base, got)
	}
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base-6 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines did not drain after Close: %d > %d", got, base)
	}
}

// Package-level loops ride the shared pool; hammering them must not
// grow the goroutine count either.
func TestSharedPoolLoopsNoLeak(t *testing.T) {
	x := make([]float64, 4096)
	chains := PartitionChains(make([]int64, len(x)), 4)
	run := func() {
		For(len(x), 4, 0, func(i int) { x[i] = float64(i) })
		RunChains(chains, 4, func(w, lo, hi int) {})
		ForRange(len(x), 4, func(lo, hi int) {})
	}
	run()
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		run()
	}
	runtime.GC()
	if got := runtime.NumGoroutine(); got > base+4 {
		t.Fatalf("goroutines grew from %d to %d across shared-pool loops", base, got)
	}
}

func TestSharedPoolGrows(t *testing.T) {
	p := sharedPool(0)
	big := sharedPool(p.Threads() + 3)
	if big.Threads() < p.Threads()+3 {
		t.Fatalf("shared pool did not grow: %d workers", big.Threads())
	}
	var count atomic.Int32
	big.Run(big.Threads(), func(w int) { count.Add(1) })
	if int(count.Load()) != big.Threads() {
		t.Fatalf("grown pool ran %d of %d workers", count.Load(), big.Threads())
	}
}
