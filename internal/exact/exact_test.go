package exact

import (
	"context"
	"testing"
	"time"

	"github.com/ising-machines/saim/internal/mkp"
	"github.com/ising-machines/saim/internal/qkp"
)

func TestKnapsackDPByHand(t *testing.T) {
	// Classic: v=(60,100,120), w=(10,20,30), cap=50 ⇒ 220 taking items 2,3.
	x, v := KnapsackDP([]int{60, 100, 120}, []int{10, 20, 30}, 50)
	if v != 220 {
		t.Fatalf("value = %d, want 220", v)
	}
	if x[0] != 0 || x[1] != 1 || x[2] != 1 {
		t.Fatalf("x = %v", x)
	}
}

func TestKnapsackDPZeroCapacity(t *testing.T) {
	x, v := KnapsackDP([]int{5}, []int{1}, 0)
	if v != 0 || x[0] != 0 {
		t.Fatalf("zero capacity: v=%d x=%v", v, x)
	}
}

func TestKnapsackDPPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted negative data")
		}
	}()
	KnapsackDP([]int{-1}, []int{1}, 5)
}

// SolveQKP with zero pair values must agree with the knapsack DP.
func TestSolveQKPMatchesDPOnLinearInstances(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		inst := qkp.Generate(18, 0.25, int(seed), seed)
		for i := range inst.W {
			for j := range inst.W[i] {
				inst.W[i][j] = 0
			}
		}
		inst.Density = 0.25 // keep Validate happy about the nominal density
		res, err := SolveQKPContext(context.Background(), inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, want := KnapsackDP(inst.H, inst.A, inst.B)
		if !res.Optimal {
			t.Fatal("linear QKP not proven optimal")
		}
		if res.Value != want {
			t.Fatalf("seed %d: B&B %d vs DP %d", seed, res.Value, want)
		}
	}
}

// SolveQKP must agree with brute force on small dense instances.
func TestSolveQKPMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inst := qkp.Generate(14, 0.5, int(seed), seed*3+1)
		bb, err := SolveQKPContext(context.Background(), inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForceQKP(inst)
		if err != nil {
			t.Fatal(err)
		}
		if bb.Value != bf.Value {
			t.Fatalf("seed %d: B&B %d vs brute force %d", seed, bb.Value, bf.Value)
		}
		if !inst.Feasible(bb.X) {
			t.Fatal("B&B returned infeasible solution")
		}
		if inst.Value(bb.X) != bb.Value {
			t.Fatal("B&B value inconsistent with its own solution")
		}
	}
}

func TestSolveMKPMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inst := mkp.Generate(14, 3, 0.5, int(seed), seed*7+5)
		bb, err := SolveMKPContext(context.Background(), inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bf, err := BruteForceMKP(inst)
		if err != nil {
			t.Fatal(err)
		}
		if bb.Value != bf.Value {
			t.Fatalf("seed %d: B&B %d vs brute force %d", seed, bb.Value, bf.Value)
		}
		if !inst.Feasible(bb.X) {
			t.Fatal("B&B returned infeasible solution")
		}
		if !bb.Optimal {
			t.Fatal("small MKP not proven optimal")
		}
	}
}

func TestSolveMKPSingleConstraintMatchesDP(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		inst := mkp.Generate(20, 1, 0.5, int(seed), seed+99)
		// Scale weights down so the DP table stays small.
		for j := 0; j < inst.N; j++ {
			inst.A[0][j] = inst.A[0][j]%50 + 1
		}
		sum := 0
		for _, w := range inst.A[0] {
			sum += w
		}
		inst.B[0] = sum / 2
		bb, err := SolveMKPContext(context.Background(), inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, want := KnapsackDP(inst.H, inst.A[0], inst.B[0])
		if bb.Value != want {
			t.Fatalf("seed %d: B&B %d vs DP %d", seed, bb.Value, want)
		}
	}
}

func TestSolveMKPMediumInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("medium B&B in -short mode")
	}
	inst := mkp.Generate(40, 5, 0.5, 1, 42)
	res, err := SolveMKPContext(context.Background(), inst, Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0 {
		t.Fatalf("suspicious optimum %d", res.Value)
	}
	if !inst.Feasible(res.X) {
		t.Fatal("infeasible solution")
	}
	if inst.Value(res.X) != res.Value {
		t.Fatal("value inconsistent with solution")
	}
}

func TestNodeLimitTruncates(t *testing.T) {
	inst := mkp.Generate(30, 5, 0.5, 1, 7)
	res, err := SolveMKPContext(context.Background(), inst, Options{NodeLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("3-node search claimed optimality")
	}
	// Even truncated searches return the greedy warm start.
	if res.Value <= 0 {
		t.Fatalf("no incumbent: %d", res.Value)
	}
}

func TestBruteForceSizeGuard(t *testing.T) {
	inst := qkp.Generate(26, 0.5, 1, 1)
	if _, err := BruteForceQKP(inst); err == nil {
		t.Fatal("brute force accepted N=26")
	}
	m := mkp.Generate(26, 2, 0.5, 1, 1)
	if _, err := BruteForceMKP(m); err == nil {
		t.Fatal("brute force accepted N=26")
	}
}

func TestResultsReportCostAsNegativeValue(t *testing.T) {
	inst := qkp.Generate(10, 0.5, 1, 3)
	res, err := SolveQKPContext(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != -float64(res.Value) {
		t.Fatalf("Cost %v vs Value %d", res.Cost, res.Value)
	}
	if res.Elapsed < 0 {
		t.Fatal("negative elapsed time")
	}
}
