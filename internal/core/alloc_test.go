package core

import (
	"context"
	"testing"

	"github.com/ising-machines/saim/internal/ising"
)

// The engine contract: once a solve is warmed up (machine built, scratch
// sized, dual history reserved, best buffer allocated on the first
// improvement), additional SAIM iterations must not touch the heap. The
// test measures whole solves at two iteration budgets — every per-solve
// allocation appears in both, so any difference is per-iteration garbage.
func TestSolveSteadyStateZeroAllocs(t *testing.T) {
	p, _ := knapsackProblem(
		[]float64{6, 5, 8, 9, 6, 7, 3}, []float64{2, 3, 6, 7, 5, 9, 4}, 15)
	measure := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := SolveContext(context.Background(), p, Options{
				Iterations: iters, SweepsPerRun: 25, Eta: 0.5, Seed: 7,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(5)
	big := measure(45)
	if big > base {
		t.Fatalf("steady-state SAIM iterations allocate: %v allocs/solve at 5 iterations vs %v at 45 (+%v over 40 extra iterations)",
			base, big, big-base)
	}
}

// Both kernels must hold the zero-allocation property, since auto-selection
// may hand either to the engine.
func TestSolveSteadyStateZeroAllocsSparse(t *testing.T) {
	p, _ := knapsackProblem(
		[]float64{6, 5, 8, 9, 6, 7, 3}, []float64{2, 3, 6, 7, 5, 9, 4}, 15)
	measure := func(iters int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := SolveContext(context.Background(), p, Options{
				Iterations: iters, SweepsPerRun: 25, Eta: 0.5, Seed: 7,
				Factory: SparseFactory,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if base, big := measure(5), measure(45); big > base {
		t.Fatalf("CSR solve allocates in steady state: %v vs %v allocs/solve", base, big)
	}
}

func TestMachineKindResolve(t *testing.T) {
	denseModel := ising.NewModel(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			denseModel.J.Set(i, j, 1)
		}
	}
	sparseModel := ising.NewModel(4)
	sparseModel.J.Set(0, 1, 1)

	if k := MachineAuto.Resolve(denseModel); k != MachineDense {
		t.Fatalf("auto on dense model resolved to %v", k)
	}
	if k := MachineAuto.Resolve(sparseModel); k != MachineSparse {
		t.Fatalf("auto on sparse model resolved to %v", k)
	}
	if MachineDense.Resolve(sparseModel) != MachineDense ||
		MachineSparse.Resolve(denseModel) != MachineSparse {
		t.Fatal("forced kinds must resolve to themselves")
	}
	if MachineAuto.String() != "auto" || MachineDense.String() != "dense" || MachineSparse.String() != "sparse" {
		t.Fatal("MachineKind strings wrong")
	}
}

// pairKnapsack is a small knapsack with pair values, so both kernels walk
// a non-trivial coupling structure.
func pairKnapsack() *Problem {
	p, _ := knapsackProblem([]float64{6, 5, 8, 9, 6, 7}, []float64{2, 3, 6, 7, 5, 9}, 15)
	pairs := []struct {
		i, j int
		w    float64
	}{{0, 2, -3}, {1, 4, -2}, {3, 5, -4}}
	linear := p.Cost
	for _, q := range pairs {
		p.Objective.AddQuad(q.i, q.j, q.w)
	}
	p.Cost = func(x ising.Bits) float64 {
		c := linear(x)
		for _, q := range pairs {
			c += q.w * float64(x[q.i]*x[q.j])
		}
		return c
	}
	return p
}

// Forcing either kernel must not change the solve outcome of the SAIM
// loop or of the penalty method: the machines are trajectory-identical
// for the same seed, so the density-picked default (nil Factory) agrees
// with both.
func TestSolveMachineKindsAgree(t *testing.T) {
	p := pairKnapsack()
	solvers := []struct {
		name  string
		solve func(Options) (*Result, error)
	}{
		{"saim", func(o Options) (*Result, error) { return SolveContext(context.Background(), p, o) }},
		{"penalty", func(o Options) (*Result, error) { return SolvePenaltyContext(context.Background(), p, 2, o) }},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			run := func(f MachineFactory) *Result {
				res, err := s.solve(Options{Iterations: 40, SweepsPerRun: 60, Eta: 0.5, Seed: 13, Factory: f})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			auto := run(nil)
			if auto.FeasibleCount == 0 {
				t.Fatal("no feasible sample; the comparison would only cover infeasible runs")
			}
			for _, k := range []struct {
				name string
				f    MachineFactory
			}{{"dense", DenseFactory}, {"sparse", SparseFactory}} {
				t.Run(k.name, func(t *testing.T) { equalResults(t, 0, run(k.f), auto) })
			}
		})
	}
}

// A reseeded, reused machine must reproduce exactly what a fresh build
// produces — the determinism contract the replica pool rests on.
func TestEngineReuseDeterminism(t *testing.T) {
	p, _ := knapsackProblem([]float64{3, 4, 5}, []float64{2, 3, 4}, 5)
	pr, err := compile(p, Options{Iterations: 20, SweepsPerRun: 40, Eta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// One engine runs seed A then seed B (machine reused + reseeded).
	eng := pr.newEngine()
	if _, err := eng.solve(t.Context(), 101, nil, nil); err != nil {
		t.Fatal(err)
	}
	reused, err := eng.solve(t.Context(), 202, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine runs seed B directly.
	fresh, err := pr.newEngine().solve(t.Context(), 202, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reused.BestCost != fresh.BestCost || reused.FeasibleCount != fresh.FeasibleCount ||
		reused.DualBest != fresh.DualBest {
		t.Fatalf("reused engine diverged from fresh: %+v vs %+v", reused, fresh)
	}
	for i := range reused.Lambda {
		if reused.Lambda[i] != fresh.Lambda[i] {
			t.Fatal("λ trajectories diverged between reused and fresh engines")
		}
	}
}
