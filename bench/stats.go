package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// Fewer than that and the percentile is one or two unlucky samples, which
// is why the benchmark reports p95 and never p99 at a few hundred requests.
const minTail = 10

// rank returns the 0-based nearest-rank index of quantile q in n sorted
// samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// quantile q.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// tailQuantile returns the highest of the usual percentiles that keeps at
// least minTail samples beyond it, or 0 when even the median does not.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if beyond(n, q) >= minTail {
			best = q
		}
	}
	return best
}

// quantile returns the nearest-rank quantile q of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// tail returns quantile q of xs, refusing it when fewer than minTail
// samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	if tailQuantile(len(xs)) < q {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples give %d",
			q*100, minTail, len(xs), max(beyond(len(xs), q), 0))
	}
	return quantile(xs, q), nil
}

// median returns the middle of xs, or the mean of the two middle values
// when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// outcome is one attempted operation as the load generator saw it.
type outcome struct {
	ok      bool          // answered without error and with the right answer
	latency time.Duration // due time to answer
}

// goodput counts operations answered OK within limit per second of window.
// A refused, failed or mismatched operation is a miss whatever its latency.
func goodput(ops []outcome, limit time.Duration, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	good := 0
	for _, o := range ops {
		if o.ok && o.latency <= limit {
			good++
		}
	}
	return float64(good) / window.Seconds()
}

// interval is a closed span of host time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and stick out of the parent; only their
// union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range cs {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return time.Duration(parent.end - parent.start - covered)
}

// passBusy sums worker busy time over evaluation passes. Requests a worker
// coalesced into one pass share that pass's start and each report the
// whole pass as their Infer time, so requests whose starts lie within
// sameStart of each other count once, at their longest Infer.
func passBusy(starts []int64, infers []time.Duration, sameStart time.Duration) time.Duration {
	idx := make([]int, len(starts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return starts[idx[a]] < starts[idx[b]] })
	var total, cur time.Duration
	first := int64(math.MinInt64)
	for _, i := range idx {
		if first == math.MinInt64 || starts[i]-first > int64(sameStart) {
			total += cur
			first, cur = starts[i], 0
		}
		cur = max(cur, infers[i])
	}
	return total + cur
}
