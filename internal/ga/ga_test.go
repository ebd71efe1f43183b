package ga

import (
	"context"
	"testing"

	"github.com/ising-machines/saim/internal/exact"
	"github.com/ising-machines/saim/internal/greedy"
	"github.com/ising-machines/saim/internal/mkp"
)

func TestSolveReachesOptimumOnSmallInstances(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		inst := mkp.Generate(16, 3, 0.5, int(seed), seed*13)
		ref, err := exact.BruteForceMKP(inst)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveKnapsackContext(context.Background(), FromMKP(inst), Options{Population: 50, Children: 4000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !inst.Feasible(res.Best) {
			t.Fatal("GA returned infeasible solution")
		}
		ratio := float64(res.Value) / float64(ref.Value)
		if ratio < 0.99 {
			t.Fatalf("seed %d: GA %d vs OPT %d (%.1f%%)", seed, res.Value, ref.Value, 100*ratio)
		}
	}
}

func TestSolveBeatsOrMatchesGreedy(t *testing.T) {
	inst := mkp.Generate(60, 5, 0.5, 1, 31)
	g, _ := greedy.MKPContext(context.Background(), inst)
	res, err := SolveKnapsackContext(context.Background(), FromMKP(inst), Options{Population: 60, Children: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < inst.Value(g) {
		t.Fatalf("GA %d worse than greedy %d", res.Value, inst.Value(g))
	}
}

func TestSolveDeterministic(t *testing.T) {
	inst := mkp.Generate(20, 3, 0.5, 1, 17)
	a, err := SolveKnapsackContext(context.Background(), FromMKP(inst), Options{Population: 30, Children: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveKnapsackContext(context.Background(), FromMKP(inst), Options{Population: 30, Children: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Improvements != b.Improvements {
		t.Fatal("same seed, different outcomes")
	}
}

func TestSolveValueConsistent(t *testing.T) {
	inst := mkp.Generate(25, 4, 0.5, 1, 19)
	res, err := SolveKnapsackContext(context.Background(), FromMKP(inst), Options{Population: 30, Children: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Value(res.Best) != res.Value {
		t.Fatalf("Value %d inconsistent with Best (%d)", res.Value, inst.Value(res.Best))
	}
	if res.Cost != -float64(res.Value) {
		t.Fatalf("Cost %v vs Value %d", res.Cost, res.Value)
	}
	if res.Children != 800 {
		t.Fatalf("Children = %d", res.Children)
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	bad := FromMKP(mkp.Generate(5, 2, 0.5, 1, 1))
	bad.A = bad.A[:1] // two capacities, one weight row
	if _, err := SolveKnapsackContext(context.Background(), bad, Options{}); err == nil {
		t.Fatal("accepted corrupted instance")
	}
}

func TestRepairProducesFeasible(t *testing.T) {
	inst := mkp.Generate(30, 4, 0.5, 1, 23)
	utility := pseudoUtilities(inst)
	desc := make([]int, inst.N)
	for j := range desc {
		desc[j] = j
	}
	// All-ones is grossly infeasible at tightness 0.5; repair must fix it
	// and then pack greedily.
	x := make([]int8, inst.N)
	for j := range x {
		x[j] = 1
	}
	repair(FromMKP(inst), x, desc, utility)
	if !inst.Feasible(x) {
		t.Fatal("repair left infeasible configuration")
	}
	// Maximality: no unselected item fits.
	load := make([]int, inst.M)
	for i := 0; i < inst.M; i++ {
		for j, xj := range x {
			if xj != 0 {
				load[i] += inst.A[i][j]
			}
		}
	}
	for j, xj := range x {
		if xj != 0 {
			continue
		}
		fits := true
		for i := 0; i < inst.M; i++ {
			if load[i]+inst.A[i][j] > inst.B[i] {
				fits = false
				break
			}
		}
		if fits {
			t.Fatalf("repair left addable item %d", j)
		}
	}
}

func TestBitsKeyDistinguishes(t *testing.T) {
	a := []int8{0, 1, 0}
	b := []int8{0, 1, 1}
	if bitsKey(a) == bitsKey(b) {
		t.Fatal("distinct configurations share a key")
	}
	if bitsKey(a) != bitsKey([]int8{0, 1, 0}) {
		t.Fatal("equal configurations have different keys")
	}
}
