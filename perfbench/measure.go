package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro"
)

// energyTally sums the modeled handheld energy of successful fetches.
// The closed form is evaluated here, from the published parameters, so
// j_per_raw_mb does not move when the program's own energy accounting
// changes; it moves only when the bytes on the wire do.
type energyTally struct {
	radio, cpu, idle, rawMB float64
}

// add charges one fetch of raw bytes that took wire bytes on the wire:
// Eq. 1 (plain download) when no block crossed compressed, Eq. 3
// (interleaved decompression) otherwise, at the paper's 11 Mb/s setting.
func (e *energyTally) add(raw, wire int64, compressed bool) {
	p := repro.Params11Mbps()
	s, sc := float64(raw)/1e6, float64(wire)/1e6
	if s <= 0 {
		return
	}
	e.rawMB += s
	if !compressed {
		e.radio += p.M*s + p.Cs
		e.idle += p.IdleFrac * s / p.RateMBps * p.Pi
		return
	}
	// Idle time while the compressed stream arrives, split into the part
	// before the first decompression buffer is full (ti1) and the rest.
	ti := p.IdleFrac * sc / p.RateMBps
	ti1 := ti
	if s >= p.BufMB {
		ti1 = p.IdleFrac * (p.BufMB * sc / s) / p.RateMBps
	}
	td := p.TdA*s + p.TdB*sc + p.TdC
	e.radio += p.M*sc + p.Cs
	e.cpu += td * p.Pd
	e.idle += ti1 * p.Pi
	if rest := ti - ti1; rest > td {
		e.idle += (rest - td) * p.Pi
	}
}

func (e *energyTally) merge(o energyTally) {
	e.radio += o.radio
	e.cpu += o.cpu
	e.idle += o.idle
	e.rawMB += o.rawMB
}

func (e energyTally) perMB() float64 { return (e.radio + e.cpu + e.idle) / e.rawMB }

// setSplit reports the per-class split of j_per_raw_mb.
func (e energyTally) setSplit(o *outcome) {
	if e.rawMB <= 0 {
		return
	}
	o.metrics["energy.radio_j_per_raw_mb"] = e.radio / e.rawMB
	o.metrics["energy.cpu_j_per_raw_mb"] = e.cpu / e.rawMB
	o.metrics["energy.idle_j_per_raw_mb"] = e.idle / e.rawMB
}

// usage is the process's CPU time and peak resident set.
type usage struct {
	cpu    time.Duration
	maxRSS float64 // MB
}

func rusageOf(ru *syscall.Rusage) usage {
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

func selfUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rusageOf(&ru)
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample []metrics.Sample

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make(runtimeSample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// setRuntime reports the runtime.* metrics for the interval between two
// samples, in which fetches fetches completed. A counter the runtime does
// not provide is left missing.
func setRuntime(o *outcome, before, after runtimeSample, fetches int64) {
	u64 := func(i int) (float64, bool) {
		if after[i].Value.Kind() != metrics.KindUint64 {
			return 0, false
		}
		return float64(after[i].Value.Uint64() - before[i].Value.Uint64()), true
	}
	f64 := func(i int) (float64, bool) {
		if after[i].Value.Kind() != metrics.KindFloat64 {
			return 0, false
		}
		return after[i].Value.Float64() - before[i].Value.Float64(), true
	}
	if fetches > 0 {
		if v, ok := u64(0); ok {
			o.metrics["runtime.allocs_per_fetch"] = v / float64(fetches)
		}
		if v, ok := u64(1); ok {
			o.metrics["runtime.alloc_kb_per_fetch"] = v / 1024 / float64(fetches)
		}
	}
	gc, ok1 := f64(2)
	total, ok2 := f64(3)
	if ok1 && ok2 && total > 0 {
		o.metrics["runtime.gc_cpu_share"] = gc / total
	}
	if after[4].Value.Kind() == metrics.KindFloat64Histogram {
		a, b := after[4].Value.Float64Histogram(), before[4].Value.Float64Histogram()
		var n uint64
		delta := make([]uint64, len(a.Counts))
		for i := range a.Counts {
			delta[i] = a.Counts[i] - b.Counts[i]
			n += delta[i]
		}
		var cum uint64
		for i, c := range delta {
			cum += c
			if n > 0 && float64(cum) >= 0.99*float64(n) {
				// The bucket's upper edge, or its lower edge for the
				// unbounded last bucket.
				edge := a.Buckets[i+1]
				if edge > 1e300 {
					edge = a.Buckets[i]
				}
				o.metrics["runtime.sched_latency_p99_us"] = edge * 1e6
				break
			}
		}
	}
}

// interval is a half-open time range.
type interval struct{ start, end time.Time }

// phaseAt is the interval a phase covers. A phase records its start as
// an offset from its span's start; one stamped at its end (atEnd) ran for
// its duration before that offset.
func phaseAt(spanStart time.Time, offset, dur time.Duration, atEnd bool) interval {
	s := spanStart.Add(offset)
	if atEnd {
		return interval{s.Add(-dur), s}
	}
	return interval{s, s.Add(dur)}
}

// covered is the total length of the union of the intervals, clipped to
// [within.start, within.end]: the part of a span its children cover.
func covered(within interval, ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	cur := within.start
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(within.end) {
			e = within.end
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// maxOverlap is the largest number of intervals open at one instant.
func maxOverlap(ivs []interval) int {
	type edge struct {
		t     time.Time
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t.Equal(edges[j].t) {
			return edges[i].delta < edges[j].delta
		}
		return edges[i].t.Before(edges[j].t)
	})
	depth, best := 0, 0
	for _, e := range edges {
		depth += e.delta
		if depth > best {
			best = depth
		}
	}
	return best
}
