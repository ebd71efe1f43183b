package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/maxcut"
	"github.com/ising-machines/saim/internal/mkp"
	"github.com/ising-machines/saim/internal/qkp"
)

// The penalty method and unconstrained annealing used to run on a second
// multi-run driver. These goldens were captured from that driver; the
// core engine must reproduce them exactly for the same seeds.

func goldenProblems() map[string]*core.Problem {
	return map[string]*core.Problem{
		"qkp-20-50-1": qkp.Generate(20, 0.5, 1, 11).ToProblem(constraint.Binary),
		"qkp-24-25-2": qkp.Generate(24, 0.25, 2, 12).ToProblem(constraint.Binary),
		"mkp-20-3-1":  mkp.Generate(20, 3, 0.5, 1, 13).ToProblem(constraint.Binary),
		"mkp-16-2-2":  mkp.Generate(16, 2, 0.25, 2, 14).ToProblem(constraint.Binary),
	}
}

func bitString(b ising.Bits) string {
	out := make([]byte, len(b))
	for i, v := range b {
		out[i] = '0' + byte(v)
	}
	return string(out)
}

// TestSolvePenaltyGolden pins every output of the penalty method: best
// bits and cost, feasible count, sweeps, runs, and the cost of every
// feasible run read back from the trace.
func TestSolvePenaltyGolden(t *testing.T) {
	probs := goldenProblems()
	cases := []struct {
		problem       string
		alpha         float64
		seed          uint64
		best          string
		bestCost      float64
		feasible      int
		sweeps        int64
		runs          int
		feasibleCosts []float64
	}{
		{"qkp-20-50-1", 0.5, 1, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-20-50-1", 0.5, 2, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-20-50-1", 2, 1, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-20-50-1", 2, 2, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-20-50-1", 20, 1, "11111110000111101011", -2824, 11, 1280, 16, []float64{-2824, -2824, -2824, -1290, -1017, -2666, -1017, -1290, -1017, -1290, -1290}},
		{"qkp-20-50-1", 20, 2, "11111111001111101111", -3826, 13, 1280, 16, []float64{-1017, -1017, -1017, -1290, -1017, -1017, -1017, -2824, -1017, -1290, -3826, -3826, -1017}},
		{"qkp-24-25-2", 0.5, 1, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-24-25-2", 0.5, 2, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-24-25-2", 2, 1, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-24-25-2", 2, 2, "", math.Inf(1), 0, 1280, 16, nil},
		{"qkp-24-25-2", 20, 1, "000100001010110010101100", -1408, 10, 1280, 16, []float64{-553, -553, -1408, -553, -553, -553, -575, -553, -553, -553}},
		{"qkp-24-25-2", 20, 2, "001000001010110010101101", -1456, 12, 1280, 16, []float64{-1408, -575, -1456, -553, -553, -1456, -553, -553, -553, -553, -553, -553}},
		{"mkp-20-3-1", 0.5, 1, "", math.Inf(1), 0, 1280, 16, nil},
		{"mkp-20-3-1", 0.5, 2, "", math.Inf(1), 0, 1280, 16, nil},
		{"mkp-20-3-1", 2, 1, "00110100111001100111", -7990, 1, 1280, 16, []float64{-7990}},
		{"mkp-20-3-1", 2, 2, "", math.Inf(1), 0, 1280, 16, nil},
		{"mkp-20-3-1", 20, 1, "00110110011011001001", -7384, 15, 1280, 16, []float64{-1886, -5772, -2363, -7384, -2621, -2231, -6313, -1576, -1594, -4806, -3579, -5391, -6703, -3518, -4531}},
		{"mkp-20-3-1", 20, 2, "10010001101000110111", -7436, 15, 1280, 16, []float64{-1477, -2330, -4476, -3582, -1496, -7436, -2267, -4713, -3894, -3574, -3340, -4375, -2267, -2293, -1418}},
		{"mkp-16-2-2", 0.5, 1, "", math.Inf(1), 0, 1280, 16, nil},
		{"mkp-16-2-2", 0.5, 2, "", math.Inf(1), 0, 1280, 16, nil},
		{"mkp-16-2-2", 2, 1, "0101100000000001", -3740, 2, 1280, 16, []float64{-3536, -3740}},
		{"mkp-16-2-2", 2, 2, "1100111000000000", -3948, 2, 1280, 16, []float64{-3598, -3948}},
		{"mkp-16-2-2", 20, 1, "0010101000000001", -3136, 16, 1280, 16, []float64{-2568, -2530, -927, -936, -1532, -1018, -1313, -2178, -3136, -1018, -1711, -1045, -1110, -1311, -1110, -1532}},
		{"mkp-16-2-2", 20, 2, "0100100000001011", -3568, 16, 1280, 16, []float64{-2952, -0, -3325, -3568, -1532, -2216, -1467, -1018, -1485, -1922, -927, -2279, -1883, -2665, -1045, -1110}},
	}
	for _, c := range cases {
		p := probs[c.problem]
		tr := &core.Trace{}
		res, err := core.SolvePenaltyContext(context.Background(), p, core.HeuristicPenalty(p, c.alpha),
			core.Options{Iterations: 16, SweepsPerRun: 80, BetaMax: 10, Seed: c.seed, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		var costs []float64
		for k, f := range tr.Feasible {
			if f {
				costs = append(costs, tr.Cost[k])
			}
		}
		if got := bitString(res.Best); got != c.best || res.BestCost != c.bestCost ||
			res.FeasibleCount != c.feasible || res.TotalSweeps != c.sweeps || res.Iterations != c.runs {
			t.Errorf("%s α=%v seed=%d: got best %q cost %v feasible %d sweeps %d runs %d; want %q %v %d %d %d",
				c.problem, c.alpha, c.seed, got, res.BestCost, res.FeasibleCount, res.TotalSweeps, res.Iterations,
				c.best, c.bestCost, c.feasible, c.sweeps, c.runs)
		}
		if !slices.Equal(costs, c.feasibleCosts) {
			t.Errorf("%s α=%v seed=%d: feasible costs %v, want %v", c.problem, c.alpha, c.seed, costs, c.feasibleCosts)
		}
		if c.feasible == 0 && !math.IsInf(res.BestCost, 1) {
			t.Errorf("%s α=%v seed=%d: infeasible solve reported cost %v", c.problem, c.alpha, c.seed, res.BestCost)
		}
	}
}

// emptySystemProblem is an unconstrained QUBO in core form: the
// normalized objective over an M = 0 constraint system, ranked by raw
// energy.
func emptySystemProblem(raw *ising.QUBO) *core.Problem {
	norm := raw.Clone()
	norm.Normalize()
	return &core.Problem{
		Objective: norm,
		Ext:       constraint.NewSystem(raw.N()).Extend(constraint.Binary),
		Cost:      raw.Energy,
	}
}

// TestSolveUnconstrainedGolden pins cost, runs and sweeps of unconstrained
// annealing on max-cut QUBOs. Bits are not pinned: among equal-cost
// assignments the winner depends on the ranking frame.
func TestSolveUnconstrainedGolden(t *testing.T) {
	cases := []struct {
		n        int
		density  float64
		maxW     int
		graph    uint64
		bestCost float64
		runs     int
		sweeps   int64
	}{
		{12, 0.3, 1, 400, -17, 20, 1200},
		{16, 0.6, 2, 401, -72, 20, 1200},
		{20, 0.3, 3, 402, -72, 20, 1200},
		{24, 0.6, 4, 403, -270, 20, 1200},
		{28, 0.3, 1, 404, -79, 20, 1200},
		{32, 0.6, 2, 405, -271, 20, 1200},
		{36, 0.3, 3, 406, -245, 20, 1200},
		{40, 0.6, 4, 407, -703, 20, 1200},
	}
	for i, c := range cases {
		g := maxcut.ErdosRenyi(c.n, c.density, c.maxW, c.graph)
		res, err := core.SolveContext(context.Background(), emptySystemProblem(g.ToQUBO()),
			core.Options{Iterations: 20, SweepsPerRun: 60, BetaMax: 10, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.BestCost != c.bestCost || res.Iterations != c.runs || res.TotalSweeps != c.sweeps || res.P != 0 {
			t.Errorf("graph %d: cost %v runs %d sweeps %d P %v; want %v %d %d 0",
				c.graph, res.BestCost, res.Iterations, res.TotalSweeps, res.P, c.bestCost, c.runs, c.sweeps)
		}
	}
}
