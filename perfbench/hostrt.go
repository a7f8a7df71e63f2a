package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
)

// rtSample is a reading of the Go runtime's cumulative counters, taken with
// runtime/metrics from the benchmark's own goroutine.
type rtSample struct {
	allocObjects uint64
	allocBytes   uint64
	gcCycles     uint64
	gcCPU        float64 // /cpu/classes/gc/total, seconds
	totalCPU     float64 // /cpu/classes/total, seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

func (a *rtSample) add(b rtSample) {
	a.allocObjects += b.allocObjects
	a.allocBytes += b.allocBytes
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// heapWatch records the peak live heap at the end of every GC cycle; a
// workload reports the median over its passes of each pass's peak. It adds
// no goroutine: a sentinel object's finalizer, which the runtime's existing
// finalizer goroutine runs after each cycle, reads the live-heap metric and
// re-arms itself.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct{ _ [64]byte }

func startHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if w.stopped.Load() {
			return
		}
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		for {
			old := w.peak.Load()
			v := s[0].Value.Uint64()
			if v <= old || w.peak.CompareAndSwap(old, v) {
				break
			}
		}
		w.arm()
	})
}

// take returns the peak live heap in MiB since the last take and starts a
// new peak.
func (w *heapWatch) take() float64 {
	return float64(w.peak.Swap(0)) / (1 << 20)
}

// stop ends the watch.
func (w *heapWatch) stop() { w.stopped.Store(true) }

// median returns the middle value (mean of the two middle values for an even
// count) of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
