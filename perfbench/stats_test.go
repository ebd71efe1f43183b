package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	// A refused request counts as +Inf latency; it must not turn the
	// percentile into NaN.
	if got := quantile([]float64{1, 2, math.Inf(1), math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with failed samples = %v, want +Inf", got)
	}
}

// The reporting rule: a percentile is reported only with at least ten
// samples beyond it.
func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// Self times come from subtraction: saim.self = saim.solve − core.solve
// and core.self = core.solve − sweeps × sweep time.
func TestSelfTimeSubtraction(t *testing.T) {
	saimSolve, coreSolve := 5.0, 4.2
	if got := selfTime(saimSolve, coreSolve); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("saim self = %v, want 0.8", got)
	}
	sweeps, sweep := 1e6, 3e-6 // one million sweeps of 3 µs
	if got := selfTime(coreSolve, sweeps*sweep); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("core self = %v, want 1.2", got)
	}
	if got := kernelShare(sweeps, sweep, coreSolve); math.Abs(got-100*3/4.2) > 1e-9 {
		t.Errorf("kernel share = %v, want %v", got, 100*3/4.2)
	}
	// A child timed on its own run can exceed the parent by noise; the
	// difference is reported as measured, not clamped.
	if got := selfTime(1.0, 1.1); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("negative self time = %v, want -0.1", got)
	}
}

func TestMixIsNeverZeroAndSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for s := uint64(0); s < 50; s++ {
		for i := uint64(0); i < 50; i++ {
			v := mix(s, i)
			if v == 0 {
				t.Fatalf("mix(%d, %d) = 0", s, i)
			}
			seen[v] = true
		}
	}
	if len(seen) != 2500 {
		t.Fatalf("%d distinct seeds from 2500 pairs", len(seen))
	}
}
