package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 over 300 samples is three observations, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles op_tail_ms may report, highest first.
// A fixed ladder keeps the reported percentile from drifting with small
// changes in sample count.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tail applies the reporting rule: the highest ladder percentile up to
// upTo with at least minBeyond samples above it. With too few samples for
// any of them it returns the maximum with q = 1 and ok = false, so the
// caller prints the sample count instead of claiming a percentile.
func tail(sorted []float64, upTo float64) (q, v float64, ok bool) {
	for _, q := range tailLadder {
		if q <= upTo && beyond(len(sorted), q) >= minBeyond {
			return q, quantile(sorted, q), true
		}
	}
	if len(sorted) == 0 {
		return 1, 0, false
	}
	return 1, sorted[len(sorted)-1], false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler records the peak live heap — the bytes the last GC found
// reachable — over a run. The live heap, unlike the heap in use, does not
// swing with where a sample lands in the GC cycle.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// finish stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
