// Package histogram is the fixed-width histogram shared by the analysis
// reports (internal/bench) and the serving metrics (internal/obs). It is a
// leaf — standard library only — so the server does not link the analysis
// stack to bucket its latencies.
package histogram

import (
	"fmt"
	"io"
	"strings"
)

// Histogram buckets values from [Lo, Lo+n*Width) into n equal-width bins;
// values outside the range are clamped into the first/last bin. The score
// histograms of the paper use [0, 1]; the serving stack reuses the same type
// for latency distributions over a millisecond range.
type Histogram struct {
	Bins   []int
	Total  int
	Lo     float64
	Width  float64
	Labels []string
}

// New buckets the values into n bins over [0, 1].
func New(values []float64, n int) Histogram {
	h := NewOver(0, 1, n)
	for _, v := range values {
		h.Add(v)
	}
	return h
}

// NewOver returns an empty histogram of n equal-width bins over [lo, hi);
// fill it with Add.
func NewOver(lo, hi float64, n int) Histogram {
	h := Histogram{Bins: make([]int, n), Lo: lo, Width: (hi - lo) / float64(n)}
	for i := 0; i < n; i++ {
		h.Labels = append(h.Labels, fmt.Sprintf("[%.2f,%.2f)", lo+float64(float64(i)*h.Width), lo+float64(float64(i+1)*h.Width)))
	}
	return h
}

// Add buckets one value, clamping out-of-range values into the edge bins.
func (h *Histogram) Add(v float64) {
	i := int((v - h.Lo) / h.Width)
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	if i < 0 {
		i = 0
	}
	h.Bins[i]++
	h.Total++
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// inside the bin holding the q*Total-th value. Resolution is bounded by the
// bin width; values clamped into the last bin cap the estimate at the range
// end.
func (h Histogram) Quantile(q float64) float64 {
	if h.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(h.Total))
	cum := 0.0
	for i, b := range h.Bins {
		next := cum + float64(b)
		if b > 0 && next >= rank {
			frac := (rank - cum) / float64(b)
			return h.Lo + float64((float64(i)+frac)*h.Width)
		}
		cum = next
	}
	return h.Lo + float64(float64(len(h.Bins))*h.Width)
}

// Fprint renders the histogram with proportional bars.
func (h Histogram) Fprint(w io.Writer, title string) {
	fmt.Fprintf(w, "%s (n=%d)\n", title, h.Total)
	max := 0
	for _, b := range h.Bins {
		if b > max {
			max = b
		}
	}
	for i, b := range h.Bins {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", b*40/max)
		}
		pct := 0.0
		if h.Total > 0 {
			pct = 100 * float64(b) / float64(h.Total)
		}
		fmt.Fprintf(w, "  %s %8d %5.1f%% %s\n", h.Labels[i], b, pct, bar)
	}
}
