package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vdcpower/internal/stats"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// subSeed is the input seed of iteration i of a run that cycles through k
// distinct inputs, seed*1000003 to seed*1000003+k-1. Because the cycle is
// fixed, the inputs a run covers, and every simulated result and check
// derived from them, depend on the seed alone and not on how many
// iterations the host's speed fits into the budget.
func subSeed(seed int64, i, k int) int64 { return seed*1_000_003 + int64(i%k) }

// memDelta brackets a measured region with runtime.MemStats reads.
type memDelta struct{ before runtime.MemStats }

// startMem collects the previous iteration's garbage, so each iteration
// starts from the same heap and the peak RSS does not depend on where a
// GC cycle happened to fall, then opens a measured region.
func startMem() *memDelta {
	runtime.GC()
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// memUse is the allocation and GC activity of one region.
type memUse struct {
	allocMB  float64
	mallocs  float64
	gcCycles float64
	gcPauseS float64
}

func (d *memDelta) stop() memUse {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memUse{
		allocMB:  float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20),
		mallocs:  float64(after.Mallocs - d.before.Mallocs),
		gcCycles: float64(after.NumGC - d.before.NumGC),
		gcPauseS: float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e9,
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
// It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	//lint:ignore errcheck read-only file; nothing to flush
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median is the 50th percentile.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// p90 is the 90th percentile.
func p90(xs []float64) float64 { return stats.Percentile(xs, 90) }

// p99 is the 99th percentile.
func p99(xs []float64) float64 { return stats.Percentile(xs, 99) }

// windowed is the median, over consecutive windows of w samples, of each
// window's p-th percentile: one slow stretch moves one window, not the
// result. A short tail joins the last window.
func windowed(xs []float64, w int, p float64) float64 {
	var ps []float64
	for lo := 0; lo < len(xs); lo += w {
		hi := lo + w
		if len(xs)-hi < w {
			hi = len(xs)
		}
		ps = append(ps, stats.Percentile(xs[lo:hi], p))
		if hi == len(xs) {
			break
		}
	}
	return median(ps)
}

// msAll converts a slice of durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// mediansOf reduces per-iteration samples of each named series to their
// medians.
func mediansOf(series map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(series))
	for k, xs := range series {
		out[k] = median(xs)
	}
	return out
}
