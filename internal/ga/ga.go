// Package ga implements the Chu–Beasley genetic algorithm for the
// multidimensional knapsack problem [28], the baseline of the paper's
// Table V. The algorithm is a steady-state GA with:
//
//   - binary-tournament parent selection,
//   - uniform crossover,
//   - light mutation (two random bit flips),
//   - a repair operator driven by pseudo-utility ratios (value divided by
//     capacity-weighted aggregate weight): a DROP phase removes the least
//     useful selected items until all constraints hold, then an ADD phase
//     greedily inserts the most useful items that still fit,
//   - replace-worst steady-state updates with duplicate rejection.
//
// Every individual in the population is feasible at all times, which is
// the defining trait of Chu & Beasley's design.
package ga

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/mkp"
	"github.com/ising-machines/saim/internal/rng"
)

// Options configures a GA run.
type Options struct {
	// Population is the steady-state population size (Chu–Beasley: 100).
	Population int
	// Children is the number of offspring generated (the time budget).
	Children int
	// Seed drives all randomness.
	Seed uint64
	// Progress, when non-nil, is invoked once per offspring with a
	// snapshot of the search (every individual is feasible by
	// construction, so FeasibleCount == Samples).
	Progress func(core.ProgressInfo)
	// TargetCost, when non-nil, stops the search early as soon as the
	// best individual reaches a minimization cost (−value) ≤ *TargetCost.
	TargetCost *float64
	// Patience, when positive, stops the search after this many
	// consecutive offspring without an improvement of the best value.
	Patience int
	// Initial, when non-empty, warm-starts the search: the assignment is
	// repaired to feasibility and injected into the initial population
	// (replacing the worst member when the population is full), so the
	// search never returns a worse result than the repaired warm start.
	Initial ising.Bits
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Population == 0 {
		out.Population = 100
	}
	if out.Children == 0 {
		out.Children = 10000
	}
	return out
}

// Result summarizes a GA run.
type Result struct {
	// Best is the best feasible assignment found.
	Best ising.Bits
	// Value is the collected value of Best.
	Value int
	// Cost is −Value.
	Cost float64
	// Children is the number of offspring generated.
	Children int
	// Improvements counts offspring that entered the population.
	Improvements int
	// Stopped records why the search returned.
	Stopped core.StopReason
}

type individual struct {
	x     ising.Bits
	value int
}

// Knapsack is the problem structure the generic GA needs: M linear
// capacity constraints A·x ≤ B for the repair operator, a pseudo-utility
// per item driving repair order, and an arbitrary integer value function to
// maximize (linear for MKP, quadratic for QKP, anything monotone-checkable
// works as long as repair keeps x feasible).
type Knapsack struct {
	// N is the number of items, M the number of capacity constraints.
	N, M int
	// A[i][j] is the weight of item j in constraint i; B[i] the capacity.
	A [][]int
	B []int
	// Util[j] orders the repair operator (higher = keep/insert first).
	Util []float64
	// Value returns the quantity to maximize for a feasible assignment.
	Value func(x ising.Bits) int
}

// Validate checks structural invariants.
func (k *Knapsack) Validate() error {
	if k.N <= 0 || k.M <= 0 {
		return fmt.Errorf("ga: non-positive dimensions N=%d M=%d", k.N, k.M)
	}
	if len(k.A) != k.M || len(k.B) != k.M || len(k.Util) != k.N || k.Value == nil {
		return fmt.Errorf("ga: inconsistent knapsack structure")
	}
	for i := range k.A {
		if len(k.A[i]) != k.N {
			return fmt.Errorf("ga: A row %d has length %d", i, len(k.A[i]))
		}
	}
	return nil
}

// FromMKP wraps an MKP instance in the generic knapsack structure using the
// Chu–Beasley pseudo-utility ordering.
func FromMKP(inst *mkp.Instance) *Knapsack {
	return &Knapsack{
		N: inst.N, M: inst.M, A: inst.A, B: inst.B,
		Util:  pseudoUtilities(inst),
		Value: inst.Value,
	}
}

// SolveKnapsackContext runs the steady-state GA on a generic knapsack
// structure. The context is checked once per offspring; on cancellation the
// best individual so far is returned with a nil error.
func SolveKnapsackContext(ctx context.Context, inst *Knapsack, opt Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	src := rng.New(o.Seed)

	utility := inst.Util
	// Items by decreasing utility for the ADD phase, increasing for DROP.
	desc := make([]int, inst.N)
	for j := range desc {
		desc[j] = j
	}
	sort.Slice(desc, func(a, b int) bool { return utility[desc[a]] > utility[desc[b]] })

	// Tiny instances cannot host a full population of *distinct*
	// individuals (there are at most 2^N configurations, fewer after
	// repair); cap the target and bound the fill attempts so population
	// initialization always terminates.
	target := o.Population
	if inst.N < 20 && target > 1<<inst.N {
		target = 1 << inst.N
	}
	pop := make([]*individual, 0, target)
	seen := map[string]bool{}
	for attempts := 0; len(pop) < target && attempts < 50*target; attempts++ {
		if ctx.Err() != nil {
			break
		}
		x := make(ising.Bits, inst.N)
		for j := range x {
			if src.Bool(0.5) {
				x[j] = 1
			}
		}
		repair(inst, x, desc, utility)
		key := bitsKey(x)
		if seen[key] {
			// Mutate a duplicate instead of rejection-sampling forever.
			x[src.Intn(inst.N)] ^= 1
			repair(inst, x, desc, utility)
			key = bitsKey(x)
			if seen[key] {
				continue
			}
		}
		seen[key] = true
		pop = append(pop, &individual{x: x, value: inst.Value(x)})
	}
	if len(pop) == 0 {
		// Degenerate fallback: the repaired empty selection is feasible.
		x := make(ising.Bits, inst.N)
		repair(inst, x, desc, utility)
		pop = append(pop, &individual{x: x, value: inst.Value(x)})
	}

	// Warm start: repair the supplied assignment and inject it into the
	// population unless an identical individual is already present.
	if len(o.Initial) == inst.N {
		x := o.Initial.Clone()
		repair(inst, x, desc, utility)
		if key := bitsKey(x); !seen[key] {
			ind := &individual{x: x, value: inst.Value(x)}
			if len(pop) < target {
				pop = append(pop, ind)
			} else {
				worst := 0
				for i := range pop {
					if pop[i].value < pop[worst].value {
						worst = i
					}
				}
				delete(seen, bitsKey(pop[worst].x))
				pop[worst] = ind
			}
			seen[key] = true
		}
	}

	best := pop[0]
	for _, ind := range pop {
		if ind.value > best.value {
			best = ind
		}
	}

	res := &Result{}
	tournament := func() *individual {
		a := pop[src.Intn(len(pop))]
		b := pop[src.Intn(len(pop))]
		if a.value >= b.value {
			return a
		}
		return b
	}

	// offspring generates one child and steady-state-updates the
	// population, reporting whether the best individual improved.
	offspring := func() bool {
		p1, p2 := tournament(), tournament()
		child := make(ising.Bits, inst.N)
		for j := range child {
			if src.Bool(0.5) {
				child[j] = p1.x[j]
			} else {
				child[j] = p2.x[j]
			}
		}
		// Mutation: flip two random bits.
		child[src.Intn(inst.N)] ^= 1
		child[src.Intn(inst.N)] ^= 1
		repair(inst, child, desc, utility)

		key := bitsKey(child)
		if seen[key] {
			return false
		}
		val := inst.Value(child)
		// Replace the worst member if the child improves on it.
		worst := 0
		for i, ind := range pop {
			if ind.value < pop[worst].value {
				worst = i
			}
		}
		if val <= pop[worst].value {
			return false
		}
		delete(seen, bitsKey(pop[worst].x))
		seen[key] = true
		pop[worst] = &individual{x: child, value: val}
		res.Improvements++
		if val > best.value {
			best = pop[worst]
			return true
		}
		return false
	}

	sinceImprove := 0
	for c := 0; c < o.Children; c++ {
		if ctx.Err() != nil {
			res.Stopped = core.StopCancelled
			break
		}
		res.Children++
		sinceImprove++
		if offspring() {
			sinceImprove = 0
		}
		if o.Progress != nil {
			o.Progress(core.ProgressInfo{
				Iteration: c, Total: o.Children, BestCost: -float64(best.value),
				FeasibleCount: c + 1, Samples: c + 1,
			})
		}
		if o.TargetCost != nil && -float64(best.value) <= *o.TargetCost {
			res.Stopped = core.StopTarget
			break
		}
		if o.Patience > 0 && sinceImprove >= o.Patience {
			res.Stopped = core.StopPatience
			break
		}
	}

	res.Best = best.x.Clone()
	res.Value = best.value
	res.Cost = -float64(best.value)
	return res, nil
}

// pseudoUtilities returns h_j / Σ_i a_ij/b_i, the surrogate-dual utility
// ratio Chu & Beasley use for their repair operator.
func pseudoUtilities(inst *mkp.Instance) []float64 {
	k := &Knapsack{N: inst.N, M: inst.M, A: inst.A, B: inst.B}
	u := make([]float64, inst.N)
	for j := 0; j < inst.N; j++ {
		u[j] = float64(inst.H[j]) / aggregateWeight(k, j)
	}
	return u
}

// aggregateWeight returns Σ_i a_ij/b_i, the capacity-normalized weight the
// pseudo-utility ratios divide by.
func aggregateWeight(inst *Knapsack, j int) float64 {
	agg := 0.0
	for i := 0; i < inst.M; i++ {
		if inst.B[i] > 0 {
			agg += float64(inst.A[i][j]) / float64(inst.B[i])
		} else {
			agg += float64(inst.A[i][j])
		}
	}
	if agg == 0 {
		agg = math.SmallestNonzeroFloat64
	}
	return agg
}

// repair makes x feasible in place: DROP selected items by increasing
// utility until every constraint holds, then ADD unselected items by
// decreasing utility where they fit.
func repair(inst *Knapsack, x ising.Bits, desc []int, utility []float64) {
	load := make([]int, inst.M)
	for i := 0; i < inst.M; i++ {
		row := inst.A[i]
		for j, xj := range x {
			if xj != 0 {
				load[i] += row[j]
			}
		}
	}
	violated := func() bool {
		for i := 0; i < inst.M; i++ {
			if load[i] > inst.B[i] {
				return true
			}
		}
		return false
	}
	// DROP: walk utility order from the worst end.
	for k := len(desc) - 1; k >= 0 && violated(); k-- {
		j := desc[k]
		if x[j] != 0 {
			x[j] = 0
			for i := 0; i < inst.M; i++ {
				load[i] -= inst.A[i][j]
			}
		}
	}
	// ADD: walk utility order from the best end.
	for _, j := range desc {
		if x[j] != 0 {
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
			x[j] = 1
			for i := 0; i < inst.M; i++ {
				load[i] += inst.A[i][j]
			}
		}
	}
}

// bitsKey returns a compact map key for a configuration.
func bitsKey(x ising.Bits) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = byte(v)
	}
	return string(b)
}
