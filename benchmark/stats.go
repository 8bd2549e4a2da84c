package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// fastest returns the smallest value: interference on a shared host only ever
// adds time, so the fastest of identical repetitions estimates the program's
// own cost.
func fastest(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return sorted(v)[0]
}

func slowest(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return sorted(v)[len(v)-1]
}

// median returns the middle value (the mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the exact q-quantile by nearest rank (the ceil(q*n)-th
// smallest), as internal/loadgen reports its own.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how the
// benchmark's acceptance rule measures spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
