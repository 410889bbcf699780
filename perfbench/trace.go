package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module's public
// function. Times are nanoseconds since the tracer's epoch; parent indexes
// the same buffer (-1 for a root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer owns the span buffers of one traced run. Spans stay in memory
// until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf hands out a buffer for one goroutine, so recording takes no lock.
// A nil tracer hands out nil buffers, on which every method is a no-op.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// spanBuf is one goroutine's span log.
type spanBuf struct {
	epoch time.Time
	spans []span
}

// begin opens a span and returns its handle (-1 on a nil buffer).
func (b *spanBuf) begin(name string, id int64, parent int) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{ID: id, Name: name, Parent: parent, Start: int64(time.Since(b.epoch))})
	return len(b.spans) - 1
}

// end closes span i, recording the work it did: n units and bytes.
func (b *spanBuf) end(i int, n, bytes int64) {
	if b == nil || i < 0 {
		return
	}
	s := &b.spans[i]
	s.End = int64(time.Since(b.epoch))
	s.N, s.Bytes = n, bytes
}

// layerAgg sums the spans of one name.
type layerAgg struct {
	count    int
	total    time.Duration
	self     time.Duration
	n, bytes int64
	durs     []float64 // each span's duration, ms
}

// medianMs is the median span duration in milliseconds.
func (a *layerAgg) medianMs() float64 {
	if a == nil {
		return 0
	}
	return median(a.durs)
}

// perN is the mean time per unit of work in the given unit.
func (a *layerAgg) perN(unit time.Duration) float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(unit) / float64(a.n)
}

// meanMs is the mean span duration in milliseconds.
func (a *layerAgg) meanMs() float64 {
	if a == nil || a.count == 0 {
		return 0
	}
	return ms(a.total) / float64(a.count)
}

// mbPerS is the byte throughput of the spans in MiB/s.
func (a *layerAgg) mbPerS() float64 {
	if a == nil || a.total <= 0 {
		return 0
	}
	return float64(a.bytes) / (1 << 20) / a.total.Seconds()
}

// aggregate sums spans by name. A span's self time is its duration minus
// the part of its interval that its children cover.
func (t *tracer) aggregate() map[string]*layerAgg {
	out := map[string]*layerAgg{}
	if t == nil {
		return out
	}
	for _, b := range t.bufs {
		for i, c := range selfTimes(b.spans) {
			s := b.spans[i]
			a := out[s.Name]
			if a == nil {
				a = &layerAgg{}
				out[s.Name] = a
			}
			d := time.Duration(s.End - s.Start)
			a.count++
			a.total += d
			a.self += c
			a.n += s.N
			a.bytes += s.Bytes
			a.durs = append(a.durs, ms(d))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the union of its
// children's intervals, clipped to the parent's.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans writes every span as one JSON line, parents renumbered to
// indexes in the written stream.
func (t *tracer) writeSpans(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	written := 0
	for _, b := range t.bufs {
		offset := written
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += offset
			}
			if err := enc.Encode(s); err != nil {
				return written, err
			}
			written++
		}
	}
	return written, bw.Flush()
}

// printSelfTimes renders the self-time table, largest first.
func printSelfTimes(w io.Writer, aggs map[string]*layerAgg) {
	names := make([]string, 0, len(aggs))
	var all time.Duration
	for name, a := range aggs {
		names = append(names, name)
		all += a.self
	}
	sort.Slice(names, func(i, j int) bool { return aggs[names[i]].self > aggs[names[j]].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, name := range names {
		a := aggs[name]
		share := 0.0
		if all > 0 {
			share = 100 * float64(a.self) / float64(all)
		}
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %6.1f%%\n", name, a.count, ms(a.total), ms(a.self), share)
	}
}
