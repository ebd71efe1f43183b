package greedy

import (
	"context"
	"testing"

	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/mkp"
	"github.com/ising-machines/saim/internal/qkp"
)

func TestQKPFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := qkp.Generate(40, 0.5, int(seed), seed)
		x, _ := QKPContext(context.Background(), inst)
		if !inst.Feasible(x) {
			t.Fatalf("seed %d: greedy infeasible", seed)
		}
	}
}

func TestQKPReasonableQuality(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		inst := qkp.Generate(15, 0.5, int(seed), seed*3)
		ref, err := exact.BruteForceQKP(inst)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := QKPContext(context.Background(), inst)
		got := inst.Value(x)
		if float64(got) < 0.75*float64(ref.Value) {
			t.Fatalf("seed %d: greedy %d below 75%% of OPT %d", seed, got, ref.Value)
		}
	}
}

func TestQKPMaximal(t *testing.T) {
	inst := qkp.Generate(30, 0.5, 1, 9)
	x, _ := QKPContext(context.Background(), inst)
	used := inst.Weight(x)
	for j := 0; j < inst.N; j++ {
		if x[j] == 0 && used+inst.A[j] <= inst.B {
			t.Fatalf("greedy left addable item %d", j)
		}
	}
}

func TestMKPFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := mkp.Generate(50, 5, 0.5, int(seed), seed)
		x, _ := MKPContext(context.Background(), inst)
		if !inst.Feasible(x) {
			t.Fatalf("seed %d: greedy infeasible", seed)
		}
	}
}

func TestMKPReasonableQuality(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		inst := mkp.Generate(16, 3, 0.5, int(seed), seed*11)
		ref, err := exact.BruteForceMKP(inst)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := MKPContext(context.Background(), inst)
		got := inst.Value(x)
		if float64(got) < 0.8*float64(ref.Value) {
			t.Fatalf("seed %d: greedy %d below 80%% of OPT %d", seed, got, ref.Value)
		}
	}
}

func TestMKPEmptyWhenNothingFits(t *testing.T) {
	inst := &mkp.Instance{
		Name: "t", N: 2, M: 1,
		H: []int{10, 10},
		A: [][]int{{5, 5}},
		B: []int{3},
	}
	x, _ := MKPContext(context.Background(), inst)
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("greedy selected unfittable items: %v", x)
	}
}
