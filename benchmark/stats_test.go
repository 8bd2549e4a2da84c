package main

import (
	"math"
	"testing"
)

func TestLapStatistics(t *testing.T) {
	laps := []float64{0.52, 0.47, 0.61, 0.45, 0.49, 0.58, 0.46, 0.50}
	if got := fastest(laps); got != 0.45 {
		t.Errorf("fastest = %v, want 0.45", got)
	}
	if got := slowest(laps); got != 0.61 {
		t.Errorf("slowest = %v, want 0.61", got)
	}
	if got := median(laps); math.Abs(got-0.495) > 1e-12 {
		t.Errorf("median of an even count = %v, want 0.495", got)
	}
	if got := median(laps[:7]); got != 0.49 {
		t.Errorf("median of an odd count = %v, want 0.49", got)
	}
	if laps[0] != 0.52 {
		t.Error("statistics must not reorder their input")
	}
	if !math.IsNaN(fastest(nil)) || !math.IsNaN(median(nil)) {
		t.Error("no laps must give NaN, not a number that looks measured")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The acceptance rule measures spread with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	five := []float64{10.2, 9.8, 10.0, 10.4, 9.9}
	if q1, q3 := quartiles(five); math.Abs(q1-9.85) > 1e-12 || math.Abs(q3-10.3) > 1e-12 {
		t.Errorf("quartiles(five) = %v, %v, want 9.85, 10.3", q1, q3)
	}
	two := []float64{1, 3}
	if q1, q3 := quartiles(two); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v, %v, want 0.5, 3.5", q1, q3)
	}
}
