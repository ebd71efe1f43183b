// Package pt implements parallel tempering (replica-exchange Monte Carlo)
// on a QUBO energy. It is the reproduction stand-in for the PT-DA baseline
// of Parizy & Togawa [17] — parallel tempering with 26 replicas executed on
// Fujitsu's Digital Annealer — which the paper compares against in Tables
// III/IV and Fig. 4.
//
// R replicas sample the same penalty energy at fixed inverse temperatures
// β_1 < … < β_R (geometric ladder). After every sweep, adjacent replicas
// attempt a configuration exchange accepted with the standard probability
//
//	A = min(1, exp[(β_i − β_j)(E_i − E_j)]),
//
// which preserves the joint Boltzmann distribution while letting hot
// replicas carry configurations over energy barriers.
package pt

import (
	"context"
	"fmt"
	"math"

	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/penalty"
	"github.com/ising-machines/saim/internal/rng"
)

// Options configures a parallel-tempering solve.
type Options struct {
	// Replicas is the number of temperature rungs (PT-DA uses 26).
	Replicas int
	// Sweeps is the number of Monte-Carlo sweeps per replica.
	Sweeps int
	// BetaMin and BetaMax bound the geometric temperature ladder.
	BetaMin, BetaMax float64
	// SampleEvery controls how often (in sweeps) feasibility of all
	// replica states is recorded; 0 means every sweep.
	SampleEvery int
	// Seed drives all randomness.
	Seed uint64
	// Progress, when non-nil, is invoked at every sampling point with a
	// snapshot of the solve (Iteration counts sweeps here).
	Progress func(core.ProgressInfo)
	// TargetCost, when non-nil, stops the solve early as soon as a
	// feasible sample reaches a cost ≤ *TargetCost.
	TargetCost *float64
	// Initial, when non-empty, warm-starts the solve: the coldest replica
	// (highest β) starts from this decision-bit assignment (slack bits
	// completed greedily) instead of a random state, and — when feasible —
	// it also seeds the best-so-far. Length must be Ext.NOrig.
	Initial ising.Bits
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Replicas == 0 {
		out.Replicas = 26
	}
	if out.Sweeps == 0 {
		out.Sweeps = 1000
	}
	if out.BetaMin == 0 {
		out.BetaMin = 0.1
	}
	if out.BetaMax == 0 {
		out.BetaMax = 10
	}
	if out.SampleEvery == 0 {
		out.SampleEvery = 1
	}
	return out
}

// Result summarizes a parallel-tempering solve of a constrained problem.
type Result struct {
	// Best is the decision-bit assignment of the best feasible sample.
	Best ising.Bits
	// BestCost is the problem cost of Best (+Inf if none was feasible).
	BestCost float64
	// FeasibleCount counts feasible replica samples at sampling points.
	FeasibleCount int
	// SampleCount counts all replica samples examined.
	SampleCount int
	// TotalSweeps is the cumulative MCS across replicas.
	TotalSweeps int64
	// SwapAttempts and SwapAccepts report exchange statistics.
	SwapAttempts, SwapAccepts int
	// P is the penalty weight used.
	P float64
	// Stopped records why the solve returned.
	Stopped core.StopReason
}

// machine is the replica contract PT needs from a p-bit kernel; both the
// dense and CSR machines of package pbit satisfy it.
type machine interface {
	Sweep(beta float64)
	State() ising.Spins
	SetState(ising.Spins)
	Randomize()
	Energy() float64
	Sweeps() int64
}

// FeasibleRatio returns the percentage of feasible samples.
func (r *Result) FeasibleRatio() float64 {
	if r.SampleCount == 0 {
		return 0
	}
	return 100 * float64(r.FeasibleCount) / float64(r.SampleCount)
}

// SolvePenaltyContext runs parallel tempering on the penalty energy
// E = f + P‖g‖² of the given problem. The context is checked once per
// sweep (a sweep covers every replica, the natural run granularity of PT).
// On cancellation the best-so-far result is returned with a nil error and
// Stopped == core.StopCancelled.
func SolvePenaltyContext(ctx context.Context, p *core.Problem, pWeight float64, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	energy := penalty.Build(p.Objective, p.Ext, pWeight)

	src := rng.New(o.Seed)
	betas := Ladder(o.BetaMin, o.BetaMax, o.Replicas)
	// All replicas share one immutable model: PT never re-programs biases,
	// and exchanges go through SetState, so only per-machine local fields
	// differ. Sharing drops the former per-replica O(N²) model rebuild.
	model := energy.ToIsing()
	sparse := core.MachineAuto.Resolve(model) == core.MachineSparse
	replicas := make([]machine, o.Replicas)
	energies := make([]float64, o.Replicas)
	for r := range replicas {
		if sparse {
			replicas[r] = pbit.NewSparse(model, src.Split())
		} else {
			replicas[r] = pbit.New(model, src.Split())
		}
		replicas[r].Randomize()
		energies[r] = replicas[r].Energy()
	}

	res := &Result{BestCost: math.Inf(1), P: pWeight}
	// Warm start: the coldest replica adopts the initial assignment, and a
	// feasible initial seeds the best-so-far so the solve never returns a
	// worse result than the assignment supplied.
	if len(o.Initial) > 0 {
		if len(o.Initial) != p.Ext.NOrig {
			return nil, fmt.Errorf("pt: initial assignment length %d, want %d", len(o.Initial), p.Ext.NOrig)
		}
		xw := make(ising.Bits, p.Ext.NTotal)
		copy(xw, o.Initial)
		p.Ext.CompleteSlacks(xw)
		cold := o.Replicas - 1
		replicas[cold].SetState(xw.Spins())
		energies[cold] = replicas[cold].Energy()
		if p.Ext.Orig.Feasible(o.Initial, 1e-9) {
			res.BestCost = p.Cost(o.Initial)
			res.Best = o.Initial.Clone()
			if o.TargetCost != nil && res.BestCost <= *o.TargetCost {
				res.Stopped = core.StopTarget
				o.Sweeps = 0
			}
		}
	}
	xbuf := make(ising.Bits, p.Ext.NTotal) // reusable sample scratch
	record := func(s ising.Spins) {
		s.BitsInto(xbuf)
		x := xbuf
		res.SampleCount++
		if p.Ext.OrigFeasible(x, 1e-9) {
			res.FeasibleCount++
			cost := p.Cost(x[:p.Ext.NOrig])
			if cost < res.BestCost {
				res.BestCost = cost
				if res.Best == nil {
					res.Best = make(ising.Bits, p.Ext.NOrig)
				}
				copy(res.Best, x[:p.Ext.NOrig])
			}
		}
	}

	swap := ising.NewSpins(p.Ext.NTotal) // exchange scratch
	for sweep := 1; sweep <= o.Sweeps; sweep++ {
		if ctx.Err() != nil {
			res.Stopped = core.StopCancelled
			break
		}
		for r, m := range replicas {
			m.Sweep(betas[r])
			energies[r] = m.Energy()
		}
		// Replica exchange between adjacent rungs; alternate parity so a
		// configuration can ratchet across the ladder.
		start := sweep % 2
		for r := start; r+1 < o.Replicas; r += 2 {
			res.SwapAttempts++
			delta := (betas[r] - betas[r+1]) * (energies[r] - energies[r+1])
			if delta >= 0 || src.Float64() < math.Exp(delta) {
				res.SwapAccepts++
				// SetState copies its argument before recomputing fields,
				// so one scratch buffer suffices for the exchange.
				copy(swap, replicas[r].State())
				replicas[r].SetState(replicas[r+1].State())
				replicas[r+1].SetState(swap)
				energies[r], energies[r+1] = energies[r+1], energies[r]
			}
		}
		if sweep%o.SampleEvery == 0 {
			for _, m := range replicas {
				record(m.State())
			}
			if o.Progress != nil {
				var sweeps int64
				for _, m := range replicas {
					sweeps += m.Sweeps()
				}
				o.Progress(core.ProgressInfo{
					Iteration: sweep - 1, Total: o.Sweeps, BestCost: res.BestCost,
					FeasibleCount: res.FeasibleCount, Samples: res.SampleCount,
					Sweeps: sweeps,
				})
			}
			if o.TargetCost != nil && res.Best != nil && res.BestCost <= *o.TargetCost {
				res.Stopped = core.StopTarget
				break
			}
		}
	}
	for _, m := range replicas {
		res.TotalSweeps += m.Sweeps()
	}
	return res, nil
}

// Ladder returns an R-rung geometric β ladder from betaMin to betaMax.
func Ladder(betaMin, betaMax float64, r int) []float64 {
	if r < 1 || betaMin <= 0 || betaMax < betaMin {
		panic("pt: invalid ladder parameters")
	}
	out := make([]float64, r)
	if r == 1 {
		out[0] = betaMax
		return out
	}
	ratio := math.Pow(betaMax/betaMin, 1/float64(r-1))
	b := betaMin
	for i := range out {
		out[i] = b
		b *= ratio
	}
	out[r-1] = betaMax
	return out
}
