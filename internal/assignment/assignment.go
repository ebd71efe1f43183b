// Package assignment solves the linear assignment problem (LAP) with the
// self-adaptive Ising machine, using the Hungarian algorithm as the exact
// reference. Assignment structure — one-hot rows and columns — is the
// constraint pattern behind the scheduling and routing applications the
// paper's introduction lists, and it exercises SAIM with 2n simultaneous
// equality constraints.
//
// Encoding: x_{i,j} = 1 assigns worker i to job j; the objective is
// Σ c_ij x_ij and the constraints are Σ_j x_ij = 1 (each worker does one
// job) and Σ_i x_ij = 1 (each job gets one worker).
package assignment

import (
	"context"
	"fmt"
	"math"

	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/vecmat"
)

// Cost is a square cost matrix; Cost[i][j] is the cost of assigning worker
// i to job j.
type Cost [][]float64

// Validate checks squareness and finiteness.
func (c Cost) Validate() error {
	n := len(c)
	if n == 0 {
		return fmt.Errorf("assignment: empty cost matrix")
	}
	for i, row := range c {
		if len(row) != n {
			return fmt.Errorf("assignment: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("assignment: cost[%d][%d] not finite", i, j)
			}
		}
	}
	return nil
}

// Random draws an n×n cost matrix with integer costs in [1, maxC].
func Random(n, maxC int, seed uint64) Cost {
	src := rng.New(seed)
	c := make(Cost, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := range c[i] {
			c[i][j] = float64(src.IntRange(1, maxC))
		}
	}
	return c
}

// Value returns the total cost of a permutation (perm[i] = job of worker i).
func (c Cost) Value(perm []int) float64 {
	s := 0.0
	for i, j := range perm {
		s += c[i][j]
	}
	return s
}

// Hungarian solves the LAP exactly in O(n³) (Jonker-style shortest
// augmenting path formulation) and returns the optimal permutation and its
// cost.
func Hungarian(c Cost) ([]int, float64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(c)
	const inf = math.MaxFloat64
	// Potentials and matching, 1-indexed internally for the standard
	// shortest-augmenting-path bookkeeping.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := c[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	perm := make([]int, n)
	for j := 1; j <= n; j++ {
		perm[p[j]-1] = j - 1
	}
	return perm, c.Value(perm), nil
}

// ToProblem encodes the LAP as a SAIM problem over n² one-hot variables.
func ToProblem(c Cost) (*core.Problem, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c)
	nVars := n * n
	idx := func(i, j int) int { return i*n + j }

	sys := constraint.NewSystem(nVars)
	for i := 0; i < n; i++ { // each worker exactly one job
		row := vecmat.NewVec(nVars)
		for j := 0; j < n; j++ {
			row[idx(i, j)] = 1
		}
		sys.Add(row, constraint.EQ, 1)
	}
	for j := 0; j < n; j++ { // each job exactly one worker
		col := vecmat.NewVec(nVars)
		for i := 0; i < n; i++ {
			col[idx(i, j)] = 1
		}
		sys.Add(col, constraint.EQ, 1)
	}
	ext := sys.Extend(constraint.Binary)
	ext.Normalize()

	obj := ising.NewQUBO(ext.NTotal)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			obj.AddLinear(idx(i, j), c[i][j])
		}
	}
	obj.Normalize()

	return &core.Problem{
		Objective: obj,
		Ext:       ext,
		Cost: func(x ising.Bits) float64 {
			perm, ok := Decode(n, x)
			if !ok {
				return math.Inf(1)
			}
			return c.Value(perm)
		},
	}, nil
}

// Decode converts a one-hot matrix assignment to a permutation. ok is
// false unless x is a permutation matrix.
func Decode(n int, x ising.Bits) ([]int, bool) {
	perm := make([]int, n)
	colUsed := make([]bool, n)
	for i := 0; i < n; i++ {
		found := -1
		for j := 0; j < n; j++ {
			if x[i*n+j] == 1 {
				if found >= 0 {
					return nil, false
				}
				found = j
			}
		}
		if found < 0 || colUsed[found] {
			return nil, false
		}
		colUsed[found] = true
		perm[i] = found
	}
	return perm, true
}

// Options tunes Solve.
type Options struct {
	Iterations   int
	SweepsPerRun int
	Eta          float64
	Penalty      float64
	BetaMax      float64
	Seed         uint64
}

// Result reports a SAIM assignment solve.
type Result struct {
	// Perm is the best feasible permutation (nil if none found).
	Perm []int
	// Cost is the total assignment cost of Perm (+Inf if none).
	Cost float64
	// FeasibleRatio is the percentage of permutation-feasible samples.
	FeasibleRatio float64
	// Gap is Cost − OptCost when an exact reference was computed (Solve
	// always computes it via Hungarian).
	Gap float64
	// OptCost is the Hungarian optimum.
	OptCost float64
}

// Solve runs SAIM on the LAP and reports the gap to the Hungarian optimum.
func Solve(c Cost, o Options) (*Result, error) {
	p, err := ToProblem(c)
	if err != nil {
		return nil, err
	}
	_, opt, err := Hungarian(c)
	if err != nil {
		return nil, err
	}
	res, err := core.SolveContext(context.Background(), p, core.Options{
		Iterations:   defInt(o.Iterations, 400),
		SweepsPerRun: defInt(o.SweepsPerRun, 300),
		Eta:          defF(o.Eta, 1),
		P:            defF(o.Penalty, 2),
		BetaMax:      defF(o.BetaMax, 20),
		Seed:         o.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{Cost: math.Inf(1), FeasibleRatio: res.FeasibleRatio(), OptCost: opt, Gap: math.Inf(1)}
	if res.Best != nil {
		perm, ok := Decode(len(c), res.Best)
		if !ok {
			return nil, fmt.Errorf("assignment: internal error — feasible sample not a permutation")
		}
		out.Perm = perm
		out.Cost = c.Value(perm)
		out.Gap = out.Cost - opt
	}
	return out, nil
}

func defInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func defF(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}
