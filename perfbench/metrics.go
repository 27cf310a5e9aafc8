package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// liveHeap collects garbage and returns the heap the program still
// references, which includes the shared region's backing memory.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
