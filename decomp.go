package saim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/decompose"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/penalty"
)

// -------------------------------------------------------------- decomp ---

// decompSolver is the qbsolv-style decomposition meta-solver: it never
// anneals the whole coupling matrix but repeatedly extracts impact-ranked
// subproblems (WithSubproblemSize variables, tabu-rotated between rounds
// by WithTabuTenure), solves them concurrently through any registered
// inner backend (WithInnerSolver), and clamps each proposal back only when
// the exact global energy improves. See internal/decompose for the engine
// and DESIGN.md §6 for the math.
//
// Unconstrained models decompose their objective directly. Constrained
// models decompose the fixed-penalty energy E = f + P·‖g‖² over the
// extended (decision + slack) variables — the same energy the penalty
// backend anneals — with P from WithPenalty or the α·d·N heuristic;
// feasibility and cost of each merged assignment are always judged against
// the original model.
//
// Option semantics under decomp: WithIterations and WithSweepsPerRun set
// the budget of each inner subproblem solve (defaults 12 and 400 — far
// below the whole-problem defaults, since a run touches only a block);
// WithRounds caps the outer loop. Result.Iterations reports rounds, and
// Result.FeasibleRatio counts the merged states the coordinator examined
// — accepted clamps and round-end assignments (inner subproblem samples
// are never checked against the original constraints).
type decompSolver struct{}

func (*decompSolver) Name() string { return "decomp" }

func (*decompSolver) Accepts(f Form) bool {
	return f == FormUnconstrained || f == FormConstrained
}

// decompBest is the shared best-feasible tracker: the coordinator updates
// it on accepted clamps, concurrent round workers read it for progress.
type decompBest struct {
	mu   sync.Mutex
	cost float64
	x    []int
}

func (b *decompBest) get() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cost
}

func (b *decompBest) improve(cost float64, x ising.Bits, n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cost >= b.cost {
		return false
	}
	b.cost = cost
	if b.x == nil {
		b.x = make([]int, n)
	}
	for i := 0; i < n; i++ {
		b.x[i] = int(x[i])
	}
	return true
}

func (s *decompSolver) Solve(ctx context.Context, m *Model, opts ...Option) (*Result, error) {
	if err := requireForm(s, m); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	ctx, cancelDL, stamp := deadline(ctx, cfg)
	defer cancelDL()
	// The deadline context governs the outer rounds; inner solves inherit
	// it (they already stop at run granularity) but must not re-derive it,
	// so the inner option list below never carries the time limit.
	innerName := cfg.innerSolver
	if innerName == "" {
		innerName = "saim"
	}
	if innerName == s.Name() {
		return nil, fmt.Errorf("saim: decomp cannot use itself as the inner solver")
	}
	inner, err := Get(innerName)
	if err != nil {
		return nil, err
	}
	if !inner.Accepts(FormUnconstrained) {
		return nil, fmt.Errorf("saim: inner solver %q does not accept the unconstrained subproblems decomposition produces", innerName)
	}
	if cfg.subSize < 0 {
		return nil, fmt.Errorf("saim: subproblem size %d < 1", cfg.subSize)
	}
	tenure := 1
	if cfg.tabuTenure != nil {
		if *cfg.tabuTenure < 0 {
			return nil, fmt.Errorf("saim: negative tabu tenure %d", *cfg.tabuTenure)
		}
		tenure = *cfg.tabuTenure
	}

	// Build the sparse energy view the engine iterates on.
	constrained := m.form == FormConstrained
	var (
		view *decompose.View
		pen  float64
	)
	if constrained {
		pen = cfg.penalty
		if pen == 0 {
			// The paper's small P = 2·d·N keeps the penalized landscape
			// mobile enough for the inner anneals to move; stiffer weights
			// would make proposals safer but freeze the blocks solid (the
			// exact clamp tests already guarantee soundness either way).
			pen = heuristicPenalty(m, orDefaultF(cfg.alpha, 2))
		}
		if pen <= 0 {
			return nil, fmt.Errorf("saim: penalty weight must be positive, got %v", pen)
		}
		view = viewFromQUBO(penalty.Build(m.inner.Objective, m.inner.Ext, pen))
	} else {
		view = viewFromQUBO(m.rawObj)
	}
	nOrig := m.n
	trueCost := func(x ising.Bits) float64 {
		if constrained {
			return m.inner.Cost(x[:nOrig])
		}
		return m.rawObj.Energy(x)
	}
	origFeasible := func(x ising.Bits) bool {
		return !constrained || m.sys.Feasible(x[:nOrig], 1e-9)
	}

	// Warm start: the initial assignment seeds the engine state, and a
	// feasible one seeds the best-so-far so the result is never worse.
	best := &decompBest{cost: math.Inf(1)}
	init, err := initialBits(m, cfg)
	if err != nil {
		return nil, err
	}
	var engInit ising.Bits
	if init == nil && constrained {
		// Start constrained decompositions from the all-zero assignment
		// with greedily completed slacks: for ≤ systems that is feasible
		// outright, and in general it sits far closer to the feasible
		// manifold of the penalized energy than a random configuration.
		ext := m.inner.Ext
		engInit = make(ising.Bits, ext.NTotal)
		ext.CompleteSlacks(engInit)
		if origFeasible(engInit) {
			best.improve(trueCost(engInit), engInit, nOrig)
		}
	}
	if init != nil {
		if constrained {
			ext := m.inner.Ext
			engInit = make(ising.Bits, ext.NTotal)
			copy(engInit, init)
			ext.CompleteSlacks(engInit)
		} else {
			engInit = init
		}
		if origFeasible(engInit) {
			best.improve(trueCost(engInit), engInit, nOrig)
			if cfg.targetCost != nil && best.cost <= *cfg.targetCost {
				return s.result(m, best, pen, StopTarget, 0, 0, 0, 0), nil
			}
		}
	}

	workers := runtime.GOMAXPROCS(0)
	iters := orDefault(cfg.iterations, 12)
	sweeps := orDefault(cfg.sweepsPerRun, 400)

	// Concurrent round workers share the replica pool's aggregated
	// progress path: each worker streams cumulative totals into its slot,
	// the coordinator streams round summaries into the last slot, and the
	// aggregator serializes the user callback with fleet-wide totals.
	var agg *core.ProgressAggregator
	var sweepsTotal atomic.Int64
	baseSamples := make([]int, workers)
	baseFeas := make([]int, workers)
	baseSweeps := make([]int64, workers)
	if cfg.progress != nil {
		agg = core.NewProgressAggregator(progressAdapter("decomp", cfg.progress), workers+1, cfg.rounds)
	}

	// The public decompose package carries a parallel copy of this
	// block-solving closure (unconstrained-only) that the import graph
	// keeps from being shared; change the two in step.
	solveBlock := func(ctx context.Context, worker int, sub *decompose.Sub, seed uint64) (ising.Bits, error) {
		b := NewBuilder(len(sub.Vars))
		for i, w := range sub.Lin {
			if w != 0 {
				b.Linear(i, w)
			}
		}
		for _, p := range sub.Pairs {
			b.Quadratic(p.I, p.J, p.W)
		}
		sm, err := b.Model()
		if err != nil {
			return nil, err
		}
		innerOpts := []Option{
			WithSeed(seed),
			WithIterations(iters),
			WithSweepsPerRun(sweeps),
			WithInitial(fromBits(sub.Warm)),
		}
		if cfg.betaMax != 0 {
			innerOpts = append(innerOpts, WithBetaMax(cfg.betaMax))
		}
		if agg != nil {
			emit := agg.Callback(worker)
			innerOpts = append(innerOpts, WithProgress(func(p Progress) {
				samples := baseSamples[worker] + p.Iteration + 1
				feas := baseFeas[worker]
				if !constrained {
					feas = samples
				}
				emit(core.ProgressInfo{
					Iteration:     samples - 1,
					Total:         cfg.rounds,
					BestCost:      best.get(),
					FeasibleCount: feas,
					Samples:       samples,
					Sweeps:        baseSweeps[worker] + p.Sweeps,
				})
			}))
		}
		res, err := inner.Solve(ctx, sm, innerOpts...)
		if err != nil {
			return nil, err
		}
		sweepsTotal.Add(res.Sweeps)
		if agg != nil {
			baseSamples[worker] += res.Iterations
			baseSweeps[worker] += res.Sweeps
			if !constrained {
				baseFeas[worker] = baseSamples[worker]
			}
		}
		if res.Assignment == nil {
			return nil, nil
		}
		return toBits(res.Assignment, len(sub.Vars))
	}

	// The coordinator tracks feasibility of every merged state — each
	// accepted clamp plus each round-end assignment — and decides early
	// stops; its requested reason survives the engine's generic
	// StoppedByCallback.
	stopReason := StopCompleted
	statesExamined, statesFeasible := 0, 0
	lastFeasible := !constrained || (engInit != nil && origFeasible(engInit))
	prevBest := best.cost
	sinceImprove := 0
	examine := func(feasible bool) {
		statesExamined++
		if feasible {
			statesFeasible++
		}
	}
	onAccept := func(x ising.Bits, e float64) {
		lastFeasible = origFeasible(x)
		examine(lastFeasible)
		if lastFeasible {
			if constrained {
				best.improve(trueCost(x), x, nOrig)
			} else {
				best.improve(e, x, nOrig)
			}
		}
	}
	onRound := func(r decompose.Round) bool {
		examine(lastFeasible)
		if agg != nil {
			agg.Callback(workers)(core.ProgressInfo{
				Iteration: r.Index,
				Total:     cfg.rounds,
				BestCost:  best.get(),
				Samples:   statesExamined, FeasibleCount: statesFeasible,
			})
		}
		if cfg.targetCost != nil && best.cost <= *cfg.targetCost {
			stopReason = StopTarget
			return true
		}
		if cfg.patience > 0 {
			if best.cost < prevBest {
				sinceImprove = 0
			} else {
				sinceImprove++
			}
			prevBest = best.cost
			if sinceImprove >= cfg.patience {
				stopReason = StopPatience
				return true
			}
		}
		return false
	}

	out, err := decompose.Run(ctx, view, decompose.Options{
		SubSize:    cfg.subSize,
		Rounds:     cfg.rounds,
		TabuTenure: tenure,
		Workers:    workers,
		Seed:       cfg.seed,
		Initial:    engInit,
		SolveBlock: solveBlock,
		OnAccept:   onAccept,
		OnRound:    onRound,
	})
	if err != nil {
		return nil, err
	}

	// For unconstrained models the engine's final assignment is the best
	// energy visited; fold it in in case no clamp was ever accepted (e.g.
	// the random start was already locally optimal).
	if !constrained {
		best.improve(view.Energy(out.X), out.X, nOrig)
	}

	stopped := StopCompleted
	switch out.Stopped {
	case decompose.Cancelled:
		stopped = stamp(StopCancelled)
	case decompose.StoppedByCallback:
		stopped = stopReason
	}
	return s.result(m, best, pen, stopped, out.Rounds, statesFeasible, statesExamined, sweepsTotal.Load()), nil
}

// result assembles the public Result from the best tracker. For
// constrained models FeasibleRatio counts the merged states the
// coordinator examined — every accepted clamp plus every round-end
// assignment (inner subproblem samples are never checked against the
// original constraints).
func (s *decompSolver) result(m *Model, best *decompBest, pen float64, stopped StopReason, rounds, feas, examined int, sweeps int64) *Result {
	out := &Result{
		Solver:     "decomp",
		Cost:       math.Inf(1),
		Penalty:    pen,
		Sweeps:     sweeps,
		Iterations: rounds,
		Stopped:    stopped,
	}
	if best.x != nil {
		out.Assignment = append([]int(nil), best.x...)
		out.Cost = best.cost
	}
	switch {
	case m.form != FormConstrained:
		out.FeasibleRatio = 100
	case examined > 0:
		out.FeasibleRatio = 100 * float64(feas) / float64(examined)
	case best.x != nil:
		out.FeasibleRatio = 100
	}
	return out
}

// viewFromQUBO flattens a dense QUBO into the sparse view the
// decomposition engine consumes. Large instances should not pass through
// here at all — the public decompose package builds views straight from
// declarative models without ever materializing the dense matrix.
func viewFromQUBO(q *ising.QUBO) *decompose.View {
	n := q.N()
	vb := decompose.NewViewBuilder(n)
	vb.AddConst(q.Const)
	for i := 0; i < n; i++ {
		if c := q.C[i]; c != 0 {
			vb.AddLinear(i, c)
		}
		row := q.Q.Row(i)
		for j := i + 1; j < n; j++ {
			if w := row[j]; w != 0 {
				vb.AddPair(i, j, 2*w) // Q stores half the pair weight
			}
		}
	}
	return vb.Build()
}
