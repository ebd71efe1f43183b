// Package greedy provides constructive heuristics for the benchmark
// problems. They serve three roles: sanity-check baselines in the
// experiment harness, warm starts for the exact solvers, and reference
// points in tests (any stochastic solver should beat or match greedy).
package greedy

import (
	"context"
	"sort"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/mkp"
	"github.com/ising-machines/saim/internal/qkp"
)

// QKPContext builds a solution by repeatedly inserting the item with the best
// marginal value density (marginal value = own value + pair values with the
// already-selected set, divided by weight) until nothing fits. This greedy
// re-evaluates densities after each insertion, so pair values influence the
// choice as the knapsack fills. The context is checked once per insertion
// (the construction is O(N²) per insertion on dense instances, so a
// deadline interrupts within one scan). The partial selection built so far is
// feasible by construction and is returned with truncated == true.
func QKPContext(ctx context.Context, inst *qkp.Instance) (x ising.Bits, truncated bool) {
	x = make(ising.Bits, inst.N)
	residual := inst.B
	selected := make([]int, 0, inst.N)
	for {
		if ctx.Err() != nil {
			return x, true
		}
		bestJ := -1
		bestDensity := 0.0
		for j := 0; j < inst.N; j++ {
			if x[j] != 0 || inst.A[j] > residual {
				continue
			}
			gain := inst.H[j]
			for _, i := range selected {
				gain += inst.W[j][i]
			}
			d := float64(gain) / float64(inst.A[j])
			if bestJ < 0 || d > bestDensity {
				bestJ = j
				bestDensity = d
			}
		}
		if bestJ < 0 {
			break
		}
		x[bestJ] = 1
		residual -= inst.A[bestJ]
		selected = append(selected, bestJ)
	}
	return x, false
}

// MKPContext builds a solution by scanning items in decreasing pseudo-utility
// (value over capacity-normalized aggregate weight — the Chu–Beasley
// ordering) and taking every item that fits. The context is checked once
// per item during the packing scan. The partial packing built so far is
// feasible by construction and is returned with truncated == true.
func MKPContext(ctx context.Context, inst *mkp.Instance) (x ising.Bits, truncated bool) {
	order := make([]int, inst.N)
	util := make([]float64, inst.N)
	for j := 0; j < inst.N; j++ {
		order[j] = j
		agg := 0.0
		for i := 0; i < inst.M; i++ {
			if inst.B[i] > 0 {
				agg += float64(inst.A[i][j]) / float64(inst.B[i])
			} else {
				agg += float64(inst.A[i][j])
			}
		}
		if agg == 0 {
			agg = 1e-300
		}
		util[j] = float64(inst.H[j]) / agg
	}
	sort.Slice(order, func(a, b int) bool { return util[order[a]] > util[order[b]] })

	x = make(ising.Bits, inst.N)
	residual := append([]int(nil), inst.B...)
	for _, j := range order {
		if ctx.Err() != nil {
			return x, true
		}
		fits := true
		for i := 0; i < inst.M; i++ {
			if inst.A[i][j] > residual[i] {
				fits = false
				break
			}
		}
		if fits {
			x[j] = 1
			for i := 0; i < inst.M; i++ {
				residual[i] -= inst.A[i][j]
			}
		}
	}
	return x, false
}
