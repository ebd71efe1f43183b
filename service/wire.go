package service

import (
	"fmt"
	"time"

	saim "github.com/ising-machines/saim"
)

// SolveOptions is the JSON wire form of a solve's option list — the shape
// cmd/saimserve accepts in submissions. Zero values mean "backend
// default", matching the functional options they lower onto.
type SolveOptions struct {
	// Alpha, Penalty, Eta are the paper's penalty/multiplier knobs.
	Alpha   float64 `json:"alpha,omitempty"`
	Penalty float64 `json:"penalty,omitempty"`
	Eta     float64 `json:"eta,omitempty"`
	// Iterations and SweepsPerRun budget the solve.
	Iterations   int `json:"iterations,omitempty"`
	SweepsPerRun int `json:"sweeps_per_run,omitempty"`
	// BetaMax is the final inverse temperature.
	BetaMax float64 `json:"beta_max,omitempty"`
	// Seed makes the solve reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// Replicas, Population size the pt/saim pool and the GA.
	Replicas   int `json:"replicas,omitempty"`
	Population int `json:"population,omitempty"`
	// TimeLimitMS caps wall-clock solve time in milliseconds (every
	// backend; Stopped reports "time-limit" on expiry).
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	// NodeLimit caps the exact solver's branch-and-bound nodes.
	NodeLimit int `json:"node_limit,omitempty"`
	// TargetCost stops the solve early at a feasible cost ≤ target.
	TargetCost *float64 `json:"target_cost,omitempty"`
	// Patience stops after this many stale iterations.
	Patience int `json:"patience,omitempty"`
	// Initial warm-starts the solve from a 0/1 assignment.
	Initial []int `json:"initial,omitempty"`
	// SubproblemSize, InnerSolver, Rounds, TabuTenure configure the
	// decomposition meta-solver.
	SubproblemSize int    `json:"subproblem_size,omitempty"`
	InnerSolver    string `json:"inner_solver,omitempty"`
	Rounds         int    `json:"rounds,omitempty"`
	TabuTenure     *int   `json:"tabu_tenure,omitempty"`
	// Racers names the field of the race meta-solver.
	Racers []string `json:"racers,omitempty"`
}

// Caps on the wire's count fields. Each count sizes memory before the
// solve starts: iterations the dual history of every annealing engine
// (64 lanes of it on the packed path), replicas the pool's result slots
// and pt's machines, population the GA's individuals. Without a cap one
// small request could exhaust the server's memory, the hazard
// model.MaxWireVariables closes for models. Each cap sits far above the
// paper's settings (2000 iterations, 26 pt rungs, a population of 100).
const (
	maxWireIterations = 1 << 16
	maxWireReplicas   = 1 << 12
	maxWirePopulation = 1 << 14
)

// Options lowers the wire form onto the functional option list. The
// returned TimeLimit (from TimeLimitMS) is reported separately so the
// manager can fold in its default; it is NOT included in the options.
func (o *SolveOptions) Options() ([]saim.Option, time.Duration, error) {
	var opts []saim.Option
	if o == nil {
		return nil, 0, nil
	}
	for _, c := range []struct {
		name     string
		val, max int
	}{
		{"iterations", o.Iterations, maxWireIterations},
		{"replicas", o.Replicas, maxWireReplicas},
		{"population", o.Population, maxWirePopulation},
	} {
		if c.val < 0 || c.val > c.max {
			return nil, 0, fmt.Errorf("service: %s %d outside [0, %d]", c.name, c.val, c.max)
		}
	}
	if o.Alpha != 0 {
		opts = append(opts, saim.WithAlpha(o.Alpha))
	}
	if o.Penalty != 0 {
		opts = append(opts, saim.WithPenalty(o.Penalty))
	}
	if o.Eta != 0 {
		opts = append(opts, saim.WithEta(o.Eta))
	}
	if o.Iterations != 0 {
		opts = append(opts, saim.WithIterations(o.Iterations))
	}
	if o.SweepsPerRun != 0 {
		opts = append(opts, saim.WithSweepsPerRun(o.SweepsPerRun))
	}
	if o.BetaMax != 0 {
		opts = append(opts, saim.WithBetaMax(o.BetaMax))
	}
	if o.Seed != 0 {
		opts = append(opts, saim.WithSeed(o.Seed))
	}
	if o.Replicas != 0 {
		opts = append(opts, saim.WithReplicas(o.Replicas))
	}
	if o.Population != 0 {
		opts = append(opts, saim.WithPopulation(o.Population))
	}
	if o.TimeLimitMS < 0 {
		return nil, 0, fmt.Errorf("service: negative time limit %d ms", o.TimeLimitMS)
	}
	if o.NodeLimit != 0 {
		opts = append(opts, saim.WithNodeLimit(o.NodeLimit))
	}
	if o.TargetCost != nil {
		opts = append(opts, saim.WithTargetCost(*o.TargetCost))
	}
	if o.Patience != 0 {
		opts = append(opts, saim.WithPatience(o.Patience))
	}
	if len(o.Initial) > 0 {
		opts = append(opts, saim.WithInitial(o.Initial))
	}
	if o.SubproblemSize != 0 {
		opts = append(opts, saim.WithSubproblemSize(o.SubproblemSize))
	}
	if o.InnerSolver != "" {
		opts = append(opts, saim.WithInnerSolver(o.InnerSolver))
	}
	if o.Rounds != 0 {
		opts = append(opts, saim.WithRounds(o.Rounds))
	}
	if o.TabuTenure != nil {
		opts = append(opts, saim.WithTabuTenure(*o.TabuTenure))
	}
	if len(o.Racers) > 0 {
		opts = append(opts, saim.WithRacers(o.Racers...))
	}
	return opts, time.Duration(o.TimeLimitMS) * time.Millisecond, nil
}
