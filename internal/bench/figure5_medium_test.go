package bench

import (
	"io"
	"math"
	"testing"

	"repro/internal/dedup"
)

// figure5MediumF1Bits pins the math.Float64bits of every best F1 of Figure 5
// at the medium scale, -top 1000, seed 1, in RunFigure5's order: NC1, NC2,
// NC3, each under dedup.Measures. The kernels and the memo behind these
// numbers may change how they compute, never what: any drift here is a
// scoring change and must be named as one.
var figure5MediumF1Bits = [3][3]uint64{
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // NC1: 1, 1, 1
	{0x3feffd558e342652, 0x3feeb8f3f76d9ebe, 0x3feff801ff801ff8}, // NC2: 0.99967, 0.96008, 0.99902
	{0x3fe50212c84352d1, 0x3fe013b6153089fa, 0x3fe7b54c474e761e}, // NC3: 0.65650, 0.50241, 0.74088
}

// TestFigure5MediumPinned is Figure 5 at a sample ten times the report's:
// NC3's ME/Lev best F1 falls from its small-scale value as the sample grows
// (the sample-size deviation of EXPERIMENTS.md), detection quality still
// falls from NC1 to NC3, and every best F1 holds its pinned bits.
func TestFigure5MediumPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 at medium scale takes seconds")
	}
	results := RunFigure5(NewWorkspace(Medium), 1000, io.Discard)
	if len(results) != 3 {
		t.Fatalf("%d datasets, want NC1, NC2, NC3", len(results))
	}
	var meLev [3]float64
	for d, res := range results {
		for m, c := range res.Curves {
			if c.Measure != dedup.Measures[m] {
				t.Fatalf("%s curve %d is %s, want %s", res.Dataset, m, c.Measure, dedup.Measures[m])
			}
			f1, _ := c.BestF1()
			if got, want := math.Float64bits(f1), figure5MediumF1Bits[d][m]; got != want {
				t.Errorf("%s %s best F1 = %v (bits %#x), pinned %v (bits %#x)",
					res.Dataset, c.Measure, f1, got, math.Float64frombits(want), want)
			}
			if c.Measure == dedup.MeasureMELev {
				meLev[d] = f1
			}
		}
	}
	if !(meLev[0] > meLev[1] && meLev[1] > meLev[2]) {
		t.Errorf("ME/Lev best F1 NC1 %v, NC2 %v, NC3 %v: want strictly falling", meLev[0], meLev[1], meLev[2])
	}
	small := RunFigure5(testWS, 100, io.Discard)
	if smallNC3, _ := small[2].Curves[0].BestF1(); meLev[2] >= smallNC3 {
		t.Errorf("NC3 ME/Lev best F1 %v at medium, want below its small value %v", meLev[2], smallNC3)
	}
}
