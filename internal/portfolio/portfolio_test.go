package portfolio

import (
	"context"
	"math"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
)

func TestGenerateValidates(t *testing.T) {
	inst := Generate(20, 3, 1.0, 7)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if !inst.Sigma.IsSymmetric() {
		t.Fatal("covariance not symmetric")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(10, 2, 1, 3)
	b := Generate(10, 2, 1, 3)
	if a.Budget != b.Budget || a.Mu[5] != b.Mu[5] || a.Sigma.At(1, 2) != b.Sigma.At(1, 2) {
		t.Fatal("same seed, different instances")
	}
}

func TestCovariancePSDOnRandomVectors(t *testing.T) {
	// Factor-model covariance must satisfy vᵀΣv ≥ 0.
	inst := Generate(15, 3, 1, 9)
	src := rng.New(4)
	for trial := 0; trial < 200; trial++ {
		v := make([]float64, inst.N)
		for i := range v {
			v[i] = src.Sym()
		}
		if q := inst.Sigma.QuadForm(v); q < -1e-9 {
			t.Fatalf("negative quadratic form %v", q)
		}
	}
}

func TestCostDecomposition(t *testing.T) {
	inst := Generate(6, 2, 2.0, 11)
	x := ising.Bits{1, 0, 1, 0, 0, 1}
	ret := inst.Mu[0] + inst.Mu[2] + inst.Mu[5]
	risk := 0.0
	sel := []int{0, 2, 5}
	for _, i := range sel {
		for _, j := range sel {
			risk += inst.Sigma.At(i, j)
		}
	}
	want := -ret + 2.0*risk
	if got := inst.Cost(x); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestRiskAversionReducesRisk(t *testing.T) {
	// Higher γ must yield an optimum with no more risk (variance of the
	// selected set) than lower γ.
	inst := Generate(14, 3, 0.0, 13)
	riskOf := func(x ising.Bits) float64 {
		return inst.Sigma.QuadForm(x.Float())
	}
	instLow := *inst
	instLow.Gamma = 0.1
	instHigh := *inst
	instHigh.Gamma = 5.0
	xLow, _, err := instLow.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	xHigh, _, err := instHigh.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if riskOf(xHigh) > riskOf(xLow)+1e-9 {
		t.Fatalf("γ=5 portfolio riskier (%v) than γ=0.1 (%v)", riskOf(xHigh), riskOf(xLow))
	}
}

// The normalized SAIM problem must rank configurations like the instance.
func TestToProblemOrdering(t *testing.T) {
	inst := Generate(10, 2, 1.5, 17)
	p := inst.ToProblem(constraint.Binary)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(23)
	for trial := 0; trial < 100; trial++ {
		x := make(ising.Bits, p.Ext.NTotal)
		y := make(ising.Bits, p.Ext.NTotal)
		for i := 0; i < inst.N; i++ {
			if src.Bool(0.5) {
				x[i] = 1
			}
			if src.Bool(0.5) {
				y[i] = 1
			}
		}
		cx, cy := inst.Cost(x[:inst.N]), inst.Cost(y[:inst.N])
		ex, ey := p.Objective.Energy(x), p.Objective.Energy(y)
		if (cx < cy && ex >= ey+1e-9) || (cx > cy && ex <= ey-1e-9) {
			t.Fatalf("ordering violated: cost %v vs %v, energy %v vs %v", cx, cy, ex, ey)
		}
	}
}

func TestSAIMSolvesPortfolio(t *testing.T) {
	inst := Generate(14, 3, 1.0, 29)
	_, opt, err := inst.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	p := inst.ToProblem(constraint.Binary)
	res, err := core.SolveContext(context.Background(), p, core.Options{
		Iterations: 300, SweepsPerRun: 300, Eta: 2, BetaMax: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible portfolio sampled")
	}
	if !inst.Feasible(res.Best) {
		t.Fatal("reported best violates the budget")
	}
	// Costs can be near zero, so compare absolutely with a small margin
	// relative to the cost scale.
	if res.BestCost > opt+0.02*math.Abs(opt)+1e-6 {
		t.Fatalf("SAIM cost %v too far above optimum %v", res.BestCost, opt)
	}
}

func TestExhaustiveGuard(t *testing.T) {
	inst := Generate(26, 2, 1, 1)
	if _, _, err := inst.Exhaustive(); err == nil {
		t.Fatal("accepted N=26")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bad := Generate(5, 2, 1, 1)
	bad.Price[0] = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero price")
	}
	bad2 := Generate(5, 2, 1, 1)
	bad2.Gamma = -1
	if err := bad2.Validate(); err == nil {
		t.Fatal("accepted negative gamma")
	}
}
