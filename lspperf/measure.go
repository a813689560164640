package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds is the process's user plus system CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// readUint64 reads one cumulative or gauge value from runtime/metrics.
func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveHeap is the heap the most recent GC cycle marked live.
func liveHeap() uint64 { return readUint64("/gc/heap/live:bytes") }

// allocBytes is the total heap bytes allocated since the process started.
func allocBytes() uint64 { return readUint64("/gc/heap/allocs:bytes") }

// heapWatch records the largest live heap any GC cycle marks while it is
// armed. Each cycle frees the previous cycle's sentinel object, whose
// finalizer reads the runtime's own live-heap figure and arms the next one,
// so the peak comes from the collector's accounting, not from a sampler.
type heapWatch struct {
	mu   sync.Mutex
	gen  int // bumped by start and stop, so a stale sentinel disarms
	peak uint64
}

type sentinel struct{ _ *int }

func (w *heapWatch) arm(gen int) {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.gen != gen {
			return
		}
		w.peak = max(w.peak, liveHeap())
		w.arm(gen)
	})
}

// start arms the watch from a clean heap.
func (w *heapWatch) start() {
	w.mu.Lock()
	w.gen++
	w.peak = 0
	gen := w.gen
	w.mu.Unlock()
	w.arm(gen)
}

// stop runs one more collection while the caller still holds the result,
// waits for that cycle's reading, and returns the peak in MiB.
func (w *heapWatch) stop() float64 {
	done := make(chan struct{})
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		w.mu.Lock()
		w.peak = max(w.peak, liveHeap())
		w.mu.Unlock()
		close(done)
	})
	runtime.GC()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gen++
	w.peak = max(w.peak, liveHeap())
	return float64(w.peak) / (1 << 20)
}

// rep is one timed repetition of a workload's unit of work.
type rep struct {
	wall, cpu, heapMB float64
}

// timeRep measures fn on a clean heap: runtime.GC first, then wall and
// process CPU seconds and the peak live heap while fn runs. What fn
// returns as keep stays live through the final heap reading, so the result
// counts in the peak.
func timeRep(fn func() (keep any, err error)) (rep, error) {
	runtime.GC()
	var w heapWatch
	w.start()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	kept, err := fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	heap := w.stop()
	runtime.KeepAlive(kept)
	return rep{wall: wall, cpu: cpu, heapMB: heap}, err
}
