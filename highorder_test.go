package saim

import (
	"context"
	"testing"
)

// highOrderModel builds a polynomial model: minimize Σ objective subject
// to every constraint polynomial being zero.
func highOrderModel(n int, objective []Monomial, constraints [][]Monomial) (*Model, error) {
	b := NewBuilder(n)
	for _, t := range objective {
		b.Term(t.W, t.Vars...)
	}
	for _, c := range constraints {
		b.ConstrainPolyEQ(c...)
	}
	return b.Model()
}

// Same scenario as the hoim package test, through the public API: minimize
// −x₂−x₃ s.t. x₀·x₁ = 1 (quadratic constraint!) and Σx = 3 ⇒ OPT −1.
func TestSolveHighOrderQuadraticConstraint(t *testing.T) {
	objective := []Monomial{{W: -1, Vars: []int{2}}, {W: -1, Vars: []int{3}}}
	constraints := [][]Monomial{
		{{W: 1, Vars: []int{0, 1}}, {W: -1}},
		{{W: 1, Vars: []int{0}}, {W: 1, Vars: []int{1}}, {W: 1, Vars: []int{2}}, {W: 1, Vars: []int{3}}, {W: -3}},
	}
	m, err := highOrderModel(4, objective, constraints)
	if err != nil {
		t.Fatal(err)
	}
	if m.Form() != FormHighOrder {
		t.Fatalf("form = %v, want %v", m.Form(), FormHighOrder)
	}
	res, err := SolveModel(context.Background(), "saim", m, WithPenalty(2), WithEta(0.5),
		WithIterations(150), WithSweepsPerRun(150), WithBetaMax(8), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible() {
		t.Fatal("no feasible assignment")
	}
	if res.Cost != -1 {
		t.Fatalf("Cost = %v, want -1", res.Cost)
	}
	if res.Assignment[0] != 1 || res.Assignment[1] != 1 {
		t.Fatalf("Assignment = %v", res.Assignment)
	}
	if len(res.Lambda) != 2 {
		t.Fatalf("Lambda = %v", res.Lambda)
	}
}

func TestSolveHighOrderValidation(t *testing.T) {
	if _, err := highOrderModel(0, nil, nil); err == nil {
		t.Fatal("accepted n=0")
	}
	bad := [][]Monomial{{{W: 1, Vars: []int{7}}}}
	if _, err := highOrderModel(2, nil, bad); err == nil {
		t.Fatal("accepted out-of-range variable")
	}
	badObj := []Monomial{{W: 1, Vars: []int{-1}}}
	okCon := [][]Monomial{{{W: 1, Vars: []int{0}}}}
	if _, err := highOrderModel(2, badObj, okCon); err == nil {
		t.Fatal("accepted negative variable index")
	}
}
