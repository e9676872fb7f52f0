package main

import (
	"fmt"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two closest ranks, so the median of an even sample
// is the mean of its middle pair. It returns 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// millis converts durations to float milliseconds for percentile math.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// throughput is completed ops per wall second; zero wall time yields 0.
func throughput(ops int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(ops) / wall.Seconds()
}

// ratio is a fraction that is always reported together with its base, so a
// 100% hit ratio over 3 lookups never reads like one over 3000.
type ratio struct {
	num, base int64
}

// value is num/base, or 0 when nothing was counted.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return float64(r.num) / float64(r.base)
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%d/%d)", r.value(), r.num, r.base)
}

// perUnit divides a total by a count, yielding 0 when the count is 0.
func perUnit(total float64, count int64) float64 {
	if count == 0 {
		return 0
	}
	return total / float64(count)
}
