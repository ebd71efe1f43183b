package pt

import (
	"context"
	"testing"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/qkp"
)

func TestLadderShape(t *testing.T) {
	l := Ladder(0.1, 10, 5)
	if len(l) != 5 {
		t.Fatalf("len = %d", len(l))
	}
	if l[0] != 0.1 || l[4] != 10 {
		t.Fatalf("endpoints = %v %v", l[0], l[4])
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not increasing at %d", i)
		}
	}
	one := Ladder(0.5, 8, 1)
	if len(one) != 1 || one[0] != 8 {
		t.Fatalf("single-rung ladder = %v", one)
	}
}

func TestLadderPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { Ladder(0, 1, 3) },
		func() { Ladder(2, 1, 3) },
		func() { Ladder(0.1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Ladder accepted bad arguments")
				}
			}()
			fn()
		}()
	}
}

func TestSolvePenaltyFindsGoodSolutions(t *testing.T) {
	inst := qkp.Generate(14, 0.5, 1, 55)
	ref, err := exact.BruteForceQKP(inst)
	if err != nil {
		t.Fatal(err)
	}
	p := inst.ToProblem(constraint.Binary)
	res, err := SolvePenaltyContext(context.Background(), p, 5, Options{
		Replicas: 8, Sweeps: 400, BetaMin: 0.2, BetaMax: 12, SampleEvery: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible sample")
	}
	if !inst.Feasible(res.Best) {
		t.Fatal("reported best infeasible")
	}
	if acc := qkp.Accuracy(res.BestCost, ref.Cost); acc < 90 {
		t.Fatalf("accuracy %v%% below 90%%", acc)
	}
	if res.TotalSweeps != 8*400 {
		t.Fatalf("TotalSweeps = %d", res.TotalSweeps)
	}
	if res.SwapAttempts == 0 {
		t.Fatal("no swap attempts recorded")
	}
}

func TestSwapsActuallyHappen(t *testing.T) {
	inst := qkp.Generate(12, 0.5, 2, 66)
	p := inst.ToProblem(constraint.Binary)
	res, err := SolvePenaltyContext(context.Background(), p, 2, Options{
		Replicas: 6, Sweeps: 200, BetaMin: 0.5, BetaMax: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapAccepts == 0 {
		t.Fatal("adjacent close-β replicas never swapped")
	}
	if res.SwapAccepts > res.SwapAttempts {
		t.Fatal("more accepts than attempts")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	inst := qkp.Generate(10, 0.5, 3, 77)
	p := inst.ToProblem(constraint.Binary)
	run := func() *Result {
		res, err := SolvePenaltyContext(context.Background(), p, 3, Options{Replicas: 4, Sweeps: 100, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestCost != b.BestCost || a.SwapAccepts != b.SwapAccepts {
		t.Fatal("same seed, different trajectories")
	}
}

func TestSampleEveryControlsSampleCount(t *testing.T) {
	inst := qkp.Generate(10, 0.5, 4, 88)
	p := inst.ToProblem(constraint.Binary)
	res, err := SolvePenaltyContext(context.Background(), p, 3, Options{Replicas: 4, Sweeps: 100, SampleEvery: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleCount != 4*10 {
		t.Fatalf("SampleCount = %d, want 40", res.SampleCount)
	}
}

func TestRejectsInvalidProblem(t *testing.T) {
	if _, err := SolvePenaltyContext(context.Background(), &core.Problem{}, 1, Options{}); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

func TestFeasibleRatioEmpty(t *testing.T) {
	if (&Result{}).FeasibleRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
}
