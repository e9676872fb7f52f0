package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5}, // mean of the middle pair
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
		{[]float64{1, 2}, 0.9, 1.9},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{5, 1, 9}, 0, 1},
	} {
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 {
		t.Error("percentile reordered its input")
	}
}

func TestThroughputAndUnits(t *testing.T) {
	if got := throughput(30, 2*time.Second); got != 15 {
		t.Errorf("throughput = %v, want 15", got)
	}
	if got := throughput(5, 0); got != 0 {
		t.Errorf("throughput over no time = %v, want 0", got)
	}
	if got := perUnit(10, 4); got != 2.5 {
		t.Errorf("perUnit = %v, want 2.5", got)
	}
	if got := perUnit(10, 0); got != 0 {
		t.Errorf("perUnit by zero = %v, want 0", got)
	}
	if got := millis([]time.Duration{1500 * time.Microsecond}); got[0] != 1.5 {
		t.Errorf("millis = %v, want [1.5]", got)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{num: 3, base: 4}
	if r.value() != 0.75 {
		t.Errorf("value = %v, want 0.75", r.value())
	}
	if got, want := r.String(), "0.7500 (3/4)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (ratio{}).value(); got != 0 {
		t.Errorf("empty ratio = %v, want 0", got)
	}
}

func TestRotateCoversEveryInputOncePerPass(t *testing.T) {
	for _, seed := range []int64{-3, 0, 1, 7} {
		seen := map[int]bool{}
		for i := 0; i < 4; i++ {
			seen[rotate(i, seed, 4)] = true
		}
		if len(seen) != 4 {
			t.Errorf("seed %d: a pass covers inputs %v", seed, seen)
		}
	}
	if rotate(0, 1, 4) == rotate(0, 2, 4) {
		t.Error("the seed does not move the pass's first input")
	}
}
