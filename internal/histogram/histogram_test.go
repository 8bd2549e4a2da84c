package histogram

import "testing"

func TestNewBucketsAndClamps(t *testing.T) {
	h := New([]float64{0, 0.04, 0.5, 0.99, 1.0}, 20)
	if h.Total != 5 {
		t.Errorf("total = %d", h.Total)
	}
	if h.Bins[0] != 2 {
		t.Errorf("first bin = %d, want 2", h.Bins[0])
	}
	if h.Bins[19] != 2 { // 0.99 and the closed 1.0
		t.Errorf("last bin = %d, want 2", h.Bins[19])
	}
}
