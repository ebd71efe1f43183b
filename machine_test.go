package saim

import (
	"context"
	"testing"
)

// buildKnapModel builds a small constrained model with a quadratic
// objective through the public Builder.
func buildKnapModel(t *testing.T) *Model {
	t.Helper()
	b := NewBuilder(6)
	values := []float64{6, 5, 8, 9, 6, 7}
	weights := []float64{2, 3, 6, 7, 5, 9}
	for i, v := range values {
		b.Term(-v, i)
	}
	b.Term(-3, 0, 2).Term(-2, 1, 4).Term(-4, 3, 5)
	b.ConstrainLE(weights, 15)
	m, err := b.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Replicated saim solves now stream aggregated progress instead of
// dropping callbacks for replicas beyond the first.
func TestReplicatedSolveStreamsProgress(t *testing.T) {
	m := buildKnapModel(t)
	calls := 0
	var lastSamples int
	res, err := SolveModel(context.Background(), "saim", m,
		WithIterations(8), WithSweepsPerRun(20), WithEta(0.5), WithSeed(5),
		WithReplicas(3),
		WithProgress(func(p Progress) {
			calls++
			if p.Iteration+1 > lastSamples {
				lastSamples = p.Iteration + 1
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3*8 {
		t.Fatalf("Iterations = %d, want 24", res.Iterations)
	}
	if calls != 3*8 {
		t.Fatalf("progress fired %d times, want one per replica iteration (24)", calls)
	}
	if lastSamples != 24 {
		t.Fatalf("aggregate iteration high-water %d, want 24", lastSamples)
	}
}
