package core_test

import (
	"context"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/qkp"
)

func smallQKP(t *testing.T) (*core.Problem, *qkp.Instance, float64) {
	t.Helper()
	inst := qkp.Generate(14, 0.5, 1, 77)
	ref, err := exact.BruteForceQKP(inst)
	if err != nil {
		t.Fatal(err)
	}
	return inst.ToProblem(constraint.Binary), inst, ref.Cost
}

func solvePenalty(t *testing.T, p *core.Problem, pw float64, o core.Options) *core.Result {
	t.Helper()
	res, err := core.SolvePenaltyContext(context.Background(), p, pw, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolvePenaltyFindsGoodFeasibleSolutions(t *testing.T) {
	p, inst, opt := smallQKP(t)
	// Penalty weights act on the normalized energy; the paper's tuned
	// values are 40–500·d·N, i.e. O(100) for a problem of this size.
	res := solvePenalty(t, p, 100, core.Options{Iterations: 60, SweepsPerRun: 300, BetaMax: 10, Seed: 1})
	if res.Best == nil {
		t.Fatal("no feasible sample")
	}
	if !inst.Feasible(res.Best) {
		t.Fatal("reported best infeasible")
	}
	if acc := qkp.Accuracy(res.BestCost, opt); acc < 90 {
		t.Fatalf("accuracy %v%% below 90%%", acc)
	}
	if res.TotalSweeps != 60*300 {
		t.Fatalf("TotalSweeps = %d", res.TotalSweeps)
	}
	for i, l := range res.Lambda {
		if l != 0 {
			t.Fatalf("λ[%d] = %v moved; the penalty method keeps it at 0", i, l)
		}
	}
}

func TestSolvePenaltyTinyPMostlyInfeasible(t *testing.T) {
	p, _, _ := smallQKP(t)
	o := core.Options{Iterations: 40, SweepsPerRun: 200, BetaMax: 10, Seed: 2}
	tiny := solvePenalty(t, p, 0.5, o)
	large := solvePenalty(t, p, 100, o)
	// The paper's observation: larger P raises feasibility.
	if tiny.FeasibleRatio() >= large.FeasibleRatio() {
		t.Fatalf("feasibility did not increase with P: %v%% vs %v%%",
			tiny.FeasibleRatio(), large.FeasibleRatio())
	}
}

func TestSolvePenaltyDeterministic(t *testing.T) {
	p, _, _ := smallQKP(t)
	o := core.Options{Iterations: 10, SweepsPerRun: 100, Seed: 9}
	a := solvePenalty(t, p, 5, o)
	b := solvePenalty(t, p, 5, o)
	if a.BestCost != b.BestCost || a.FeasibleCount != b.FeasibleCount ||
		bitString(a.Best) != bitString(b.Best) || a.TotalSweeps != b.TotalSweeps {
		t.Fatal("same seed, different outcomes")
	}
}

// FeasibleRatio on a penalty result counts the same runs the trace marks
// feasible, over the number of runs made. At P = 100 this seed gives a mix
// of feasible and infeasible runs.
func TestSolvePenaltyFeasibleRatio(t *testing.T) {
	p, _, _ := smallQKP(t)
	tr := &core.Trace{}
	res := solvePenalty(t, p, 100, core.Options{Iterations: 12, SweepsPerRun: 100, BetaMax: 10, Seed: 3, Trace: tr})
	if len(tr.Feasible) != res.Iterations || res.Iterations != 12 {
		t.Fatalf("runs: trace %d, result %d, want 12", len(tr.Feasible), res.Iterations)
	}
	feasible := 0
	for _, f := range tr.Feasible {
		if f {
			feasible++
		}
	}
	if res.FeasibleCount != feasible {
		t.Fatalf("FeasibleCount = %d, trace has %d feasible runs", res.FeasibleCount, feasible)
	}
	if want := 100 * float64(feasible) / 12; res.FeasibleRatio() != want {
		t.Fatalf("FeasibleRatio = %v, want %v", res.FeasibleRatio(), want)
	}
}

func TestSolvePenaltyRejectsInvalidProblem(t *testing.T) {
	if _, err := core.SolvePenaltyContext(context.Background(), &core.Problem{}, 1, core.Options{}); err == nil {
		t.Fatal("accepted invalid problem")
	}
	p, _, _ := smallQKP(t)
	if _, err := core.SolvePenaltyContext(context.Background(), p, 0, core.Options{}); err == nil {
		t.Fatal("accepted a zero penalty weight")
	}
}

func TestSolveUnconstrainedGroundState(t *testing.T) {
	// Tiny max-cut-like QUBO: E = 2x0x1 - x0 - x1 has minima at (1,0),(0,1).
	q := ising.NewQUBO(2)
	q.AddQuad(0, 1, 2)
	q.AddLinear(0, -1)
	q.AddLinear(1, -1)
	res, err := core.SolveContext(context.Background(), emptySystemProblem(q),
		core.Options{Iterations: 20, SweepsPerRun: 100, BetaMax: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != -1 {
		t.Fatalf("energy = %v, want -1", res.BestCost)
	}
	if res.Best[0]+res.Best[1] != 1 {
		t.Fatalf("x = %v", res.Best)
	}
	if res.FeasibleRatio() != 100 || res.P != 0 || len(res.Lambda) != 0 {
		t.Fatalf("unconstrained solve: feasible %v%%, P %v, λ %v", res.FeasibleRatio(), res.P, res.Lambda)
	}
}
