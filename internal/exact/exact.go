// Package exact provides certified solvers for the benchmark problems:
//
//   - SolveMKP: branch and bound with LP-relaxation bounds (via
//     internal/simplex), the stand-in for the Matlab intlinprog runs the
//     paper uses to obtain MKP optima and the "B&B time" column of Table V;
//   - SolveQKP: branch and bound with a fractional (Dantzig-style) upper
//     bound on an optimistic linearization of the pair values;
//   - KnapsackDP: the classic dynamic program for single-constraint linear
//     knapsacks, used as an independent reference in tests.
//
// All solvers maximize collected value, matching the knapsack convention;
// results also report the minimization cost −value used elsewhere.
package exact

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/mkp"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/internal/simplex"
)

// Options bounds the search effort.
type Options struct {
	// NodeLimit caps explored branch-and-bound nodes (0 = 50 million).
	NodeLimit int
	// TimeLimit caps wall-clock time (0 = no limit).
	TimeLimit time.Duration
}

func (o Options) nodeLimit() int {
	if o.NodeLimit <= 0 {
		return 50_000_000
	}
	return o.NodeLimit
}

// Result is the outcome of an exact solve.
type Result struct {
	// X is the best assignment found.
	X ising.Bits
	// Value is the collected value hᵀx (+ pair values for QKP).
	Value int
	// Cost is −Value, the minimization objective.
	Cost float64
	// Optimal reports whether optimality was proven (limits not hit).
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// KnapsackDP solves max Σ v_j x_j s.t. Σ w_j x_j ≤ capacity exactly by
// dynamic programming over capacities. It panics on negative inputs.
func KnapsackDP(values, weights []int, capacity int) (ising.Bits, int) {
	n := len(values)
	if len(weights) != n {
		panic("exact: KnapsackDP dimension mismatch")
	}
	if capacity < 0 {
		panic("exact: negative capacity")
	}
	for j := 0; j < n; j++ {
		if values[j] < 0 || weights[j] < 0 {
			panic("exact: negative knapsack data")
		}
	}
	// best[c] = best value with capacity c; keep[j][c] marks item taken.
	best := make([]int, capacity+1)
	keep := make([][]bool, n)
	for j := 0; j < n; j++ {
		keep[j] = make([]bool, capacity+1)
		w, v := weights[j], values[j]
		for c := capacity; c >= w; c-- {
			if cand := best[c-w] + v; cand > best[c] {
				best[c] = cand
				keep[j][c] = true
			}
		}
	}
	x := make(ising.Bits, n)
	c := capacity
	for j := n - 1; j >= 0; j-- {
		if keep[j][c] {
			x[j] = 1
			c -= weights[j]
		}
	}
	return x, best[capacity]
}

// mkpSearch carries the shared state of the MKP branch and bound.
type mkpSearch struct {
	inst      *mkp.Instance
	order     []int // variable order: decreasing LP pseudo-utility
	bestVal   int
	bestX     ising.Bits
	nodes     int
	nodeLimit int
	deadline  time.Time
	hasDL     bool
	truncated bool
	ctx       context.Context
}

// SolveMKPContext solves the MKP instance by depth-first branch and bound with
// LP-relaxation upper bounds. The context is checked every few dozen
// branch-and-bound nodes. On cancellation the incumbent (best-so-far)
// solution is returned with Optimal == false and a nil error.
func SolveMKPContext(ctx context.Context, inst *mkp.Instance, opt Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	s := &mkpSearch{
		inst:      inst,
		nodeLimit: opt.nodeLimit(),
		bestX:     make(ising.Bits, inst.N),
		ctx:       ctx,
	}
	if opt.TimeLimit > 0 {
		s.deadline = start.Add(opt.TimeLimit)
		s.hasDL = true
	}

	// Variable order: decreasing value per unit of aggregate weight —
	// strong branching order for knapsack-type problems.
	s.order = make([]int, inst.N)
	util := make([]float64, inst.N)
	for j := 0; j < inst.N; j++ {
		s.order[j] = j
		agg := 0.0
		for i := 0; i < inst.M; i++ {
			if inst.B[i] > 0 {
				agg += float64(inst.A[i][j]) / float64(inst.B[i])
			} else {
				agg += float64(inst.A[i][j])
			}
		}
		if agg == 0 {
			agg = 1e-12
		}
		util[j] = float64(inst.H[j]) / agg
	}
	sort.Slice(s.order, func(a, b int) bool { return util[s.order[a]] > util[s.order[b]] })

	// Greedy warm start along the branching order.
	greedyX := make(ising.Bits, inst.N)
	residual := append([]int(nil), inst.B...)
	greedyVal := 0
	for _, j := range s.order {
		fits := true
		for i := 0; i < inst.M; i++ {
			if inst.A[i][j] > residual[i] {
				fits = false
				break
			}
		}
		if fits {
			greedyX[j] = 1
			greedyVal += inst.H[j]
			for i := 0; i < inst.M; i++ {
				residual[i] -= inst.A[i][j]
			}
		}
	}
	s.bestVal = greedyVal
	copy(s.bestX, greedyX)

	fixed := make([]int8, inst.N) // -1 free, 0/1 fixed
	for j := range fixed {
		fixed[j] = -1
	}
	rhs := append([]int(nil), inst.B...)
	s.dfs(fixed, rhs, 0)

	res := &Result{
		X:       s.bestX,
		Value:   s.bestVal,
		Cost:    -float64(s.bestVal),
		Optimal: !s.truncated,
		Nodes:   s.nodes,
		Elapsed: time.Since(start),
	}
	return res, nil
}

// dfs explores the subtree with the given fixing; rhs already accounts for
// fixed-to-1 items. base is the value of fixed-to-1 items.
func (s *mkpSearch) dfs(fixed []int8, rhs []int, base int) {
	// Once truncated (node limit, deadline, or cancellation), unwind the
	// whole recursion instead of continuing into sibling branches.
	if s.truncated {
		return
	}
	s.nodes++
	if s.nodes > s.nodeLimit ||
		(s.nodes%64 == 0 && (s.ctx.Err() != nil || (s.hasDL && time.Now().After(s.deadline)))) {
		s.truncated = true
		return
	}
	inst := s.inst
	// Collect free variables.
	var free []int
	for _, j := range s.order {
		if fixed[j] < 0 {
			free = append(free, j)
		}
	}
	if len(free) == 0 {
		if base > s.bestVal {
			s.bestVal = base
			for j := range fixed {
				s.bestX[j] = fixed[j]
			}
		}
		return
	}
	// LP relaxation over free variables.
	lp := simplex.Problem{
		C: make([]float64, len(free)),
		A: make([][]float64, inst.M),
		B: make([]float64, inst.M),
	}
	for k, j := range free {
		lp.C[k] = float64(inst.H[j])
	}
	for i := 0; i < inst.M; i++ {
		lp.A[i] = make([]float64, len(free))
		for k, j := range free {
			lp.A[i][k] = float64(inst.A[i][j])
		}
		lp.B[i] = float64(rhs[i])
	}
	sol, err := simplex.MaximizeBoxed(lp)
	if err != nil || sol.Status != simplex.Optimal {
		// Numerical trouble: fall back to the loose bound Σ free values.
		loose := base
		for _, j := range free {
			loose += inst.H[j]
		}
		if loose <= s.bestVal {
			return
		}
	} else {
		ub := base + int(math.Floor(sol.Value+1e-6))
		if ub <= s.bestVal {
			return
		}
		// Integral LP solution: accept directly.
		integral := true
		for _, x := range sol.X {
			if x > 1e-6 && x < 1-1e-6 {
				integral = false
				break
			}
		}
		if integral {
			val := base
			for k, j := range free {
				if sol.X[k] > 0.5 {
					val += inst.H[j]
				}
			}
			if val > s.bestVal {
				s.bestVal = val
				for j := range fixed {
					if fixed[j] >= 0 {
						s.bestX[j] = fixed[j]
					} else {
						s.bestX[j] = 0
					}
				}
				for k, j := range free {
					if sol.X[k] > 0.5 {
						s.bestX[j] = 1
					}
				}
			}
			return
		}
	}

	// Branch on the first free variable in utility order (down-branching
	// on the most attractive item first).
	j := free[0]
	// Try x_j = 1 if it fits.
	fits := true
	for i := 0; i < inst.M; i++ {
		if inst.A[i][j] > rhs[i] {
			fits = false
			break
		}
	}
	if fits {
		fixed[j] = 1
		for i := 0; i < inst.M; i++ {
			rhs[i] -= inst.A[i][j]
		}
		newBase := base + inst.H[j]
		if newBase > s.bestVal {
			// Leaf update even before recursing: all-zero completion.
			s.bestVal = newBase
			for jj := range fixed {
				if fixed[jj] == 1 {
					s.bestX[jj] = 1
				} else {
					s.bestX[jj] = 0
				}
			}
		}
		s.dfs(fixed, rhs, newBase)
		for i := 0; i < inst.M; i++ {
			rhs[i] += inst.A[i][j]
		}
	}
	fixed[j] = 0
	s.dfs(fixed, rhs, base)
	fixed[j] = -1
}

// qkpSearch carries the shared state of the QKP branch and bound.
type qkpSearch struct {
	inst      *qkp.Instance
	order     []int
	rankCache []int
	bestVal   int
	bestX     ising.Bits
	nodes     int
	nodeLimit int
	deadline  time.Time
	hasDL     bool
	truncated bool
	ctx       context.Context
}

// SolveQKPContext solves the QKP instance by depth-first branch and bound. The
// upper bound at each node linearizes pair values optimistically (every
// pair value is credited to both endpoints) and applies a fractional
// knapsack fill; this is valid but loose, so the solver is intended for
// instances up to a few dozen items — enough to certify the reduced-scale
// experiment suites. The context is checked every few hundred
// branch-and-bound nodes. On cancellation the incumbent (best-so-far)
// solution is returned with Optimal == false and a nil error.
func SolveQKPContext(ctx context.Context, inst *qkp.Instance, opt Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	s := &qkpSearch{
		inst:      inst,
		nodeLimit: opt.nodeLimit(),
		bestX:     make(ising.Bits, inst.N),
		ctx:       ctx,
	}
	if opt.TimeLimit > 0 {
		s.deadline = start.Add(opt.TimeLimit)
		s.hasDL = true
	}
	// Order by optimistic density.
	s.order = make([]int, inst.N)
	dens := make([]float64, inst.N)
	for j := 0; j < inst.N; j++ {
		s.order[j] = j
		opt := inst.H[j]
		for i := 0; i < inst.N; i++ {
			opt += inst.W[j][i]
		}
		dens[j] = float64(opt) / float64(inst.A[j])
	}
	sort.Slice(s.order, func(a, b int) bool { return dens[s.order[a]] > dens[s.order[b]] })

	// Greedy warm start.
	x := make(ising.Bits, inst.N)
	residual := inst.B
	for _, j := range s.order {
		if inst.A[j] <= residual {
			x[j] = 1
			residual -= inst.A[j]
		}
	}
	s.bestVal = inst.Value(x)
	copy(s.bestX, x)

	cur := make(ising.Bits, inst.N)
	s.dfsQKP(cur, 0, 0, inst.B)

	return &Result{
		X:       s.bestX,
		Value:   s.bestVal,
		Cost:    -float64(s.bestVal),
		Optimal: !s.truncated,
		Nodes:   s.nodes,
		Elapsed: time.Since(start),
	}, nil
}

// dfsQKP explores assignments to s.order[depth:]; val is the value of the
// current partial selection and residual the remaining capacity.
func (s *qkpSearch) dfsQKP(cur ising.Bits, depth, val, residual int) {
	// Once truncated (node limit, deadline, or cancellation), unwind the
	// whole recursion instead of continuing into sibling branches.
	if s.truncated {
		return
	}
	s.nodes++
	if s.nodes > s.nodeLimit ||
		(s.nodes%256 == 0 && (s.ctx.Err() != nil || (s.hasDL && time.Now().After(s.deadline)))) {
		s.truncated = true
		return
	}
	inst := s.inst
	if val > s.bestVal {
		s.bestVal = val
		copy(s.bestX, cur)
	}
	if depth == inst.N {
		return
	}
	// Upper bound: optimistic density fill of remaining items.
	if s.upperBound(cur, depth, val, residual) <= s.bestVal {
		return
	}
	j := s.order[depth]
	if inst.A[j] <= residual {
		// Take j: add its value plus pair values with already-selected items.
		gain := inst.H[j]
		for i := 0; i < inst.N; i++ {
			if cur[i] != 0 {
				gain += inst.W[j][i]
			}
		}
		cur[j] = 1
		s.dfsQKP(cur, depth+1, val+gain, residual-inst.A[j])
		cur[j] = 0
	}
	s.dfsQKP(cur, depth+1, val, residual)
}

// upperBound returns an optimistic value bound for completing cur from
// depth onward: each remaining item is credited its full value plus all
// pair values with selected items and *all* other remaining items, then a
// fractional Dantzig fill is applied.
func (s *qkpSearch) upperBound(cur ising.Bits, depth, val, residual int) int {
	inst := s.inst
	type cand struct {
		opt    float64
		weight int
	}
	cands := make([]cand, 0, inst.N-depth)
	for k := depth; k < inst.N; k++ {
		j := s.order[k]
		opt := float64(inst.H[j])
		for i := 0; i < inst.N; i++ {
			if cur[i] != 0 || (i != j && s.rank(i) >= depth) {
				opt += float64(inst.W[j][i])
			}
		}
		cands = append(cands, cand{opt: opt, weight: inst.A[j]})
	}
	sort.Slice(cands, func(a, b int) bool {
		return cands[a].opt/float64(cands[a].weight) > cands[b].opt/float64(cands[b].weight)
	})
	bound := float64(val)
	rem := float64(residual)
	for _, c := range cands {
		w := float64(c.weight)
		if w <= rem {
			bound += c.opt
			rem -= w
		} else {
			bound += c.opt * rem / w
			break
		}
	}
	return int(math.Floor(bound + 1e-9))
}

// rank returns the position of item j in the branching order. Precomputed
// lazily into a cache on first use.
func (s *qkpSearch) rank(j int) int {
	if s.rankCache == nil {
		s.rankCache = make([]int, s.inst.N)
		for pos, jj := range s.order {
			s.rankCache[jj] = pos
		}
	}
	return s.rankCache[j]
}

// BruteForceQKP enumerates all 2^N assignments (N ≤ 25) and returns the
// optimum. It is a test oracle, not a production solver.
func BruteForceQKP(inst *qkp.Instance) (*Result, error) {
	if inst.N > 25 {
		return nil, fmt.Errorf("exact: brute force limited to N ≤ 25, got %d", inst.N)
	}
	start := time.Now()
	best := -1
	bestX := make(ising.Bits, inst.N)
	x := make(ising.Bits, inst.N)
	for mask := 0; mask < 1<<inst.N; mask++ {
		for j := 0; j < inst.N; j++ {
			x[j] = int8(mask >> j & 1)
		}
		if !inst.Feasible(x) {
			continue
		}
		if v := inst.Value(x); v > best {
			best = v
			copy(bestX, x)
		}
	}
	return &Result{X: bestX, Value: best, Cost: -float64(best), Optimal: true,
		Nodes: 1 << inst.N, Elapsed: time.Since(start)}, nil
}

// BruteForceMKP enumerates all 2^N assignments (N ≤ 25).
func BruteForceMKP(inst *mkp.Instance) (*Result, error) {
	if inst.N > 25 {
		return nil, fmt.Errorf("exact: brute force limited to N ≤ 25, got %d", inst.N)
	}
	start := time.Now()
	best := -1
	bestX := make(ising.Bits, inst.N)
	x := make(ising.Bits, inst.N)
	for mask := 0; mask < 1<<inst.N; mask++ {
		for j := 0; j < inst.N; j++ {
			x[j] = int8(mask >> j & 1)
		}
		if !inst.Feasible(x) {
			continue
		}
		if v := inst.Value(x); v > best {
			best = v
			copy(bestX, x)
		}
	}
	return &Result{X: bestX, Value: best, Cost: -float64(best), Optimal: true,
		Nodes: 1 << inst.N, Elapsed: time.Since(start)}, nil
}
