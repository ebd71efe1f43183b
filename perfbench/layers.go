package main

import (
	"context"
	"fmt"

	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/penalty"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
)

// engineCase is a workload model lowered to the engine's own input: the
// equivalent core.Problem with the options and seed the registry backend
// used, so L1 and L0 can be timed apart from L2.
type engineCase struct {
	problem  *core.Problem
	opts     core.Options
	replicas int
	// wantBest is the backend's best cost for the same seed; the core
	// path must reproduce it exactly.
	wantBest float64
	// denseRuns and packedRuns are the fixed numbers of annealing runs
	// (of opts.SweepsPerRun sweeps each) the two kernel probes time.
	denseRuns, packedRuns int
}

// engineLayers runs the core solve and the two kernel probes, records
// the L1/L0 per-layer metrics, and returns the core solve time so the
// caller can subtract it from the registry solve.
func engineLayers(ctx context.Context, tr *tracer, job string, ec engineCase, out *outcome) (coreSolve float64, err error) {
	o := ec.opts
	root := tr.begin("engine", -1, job)
	defer tr.end(root)

	// core compiles E = f + P‖g‖² and its Ising image once per solve; the
	// same calls, timed here, give the compile share of core.solve_s.
	var im *ising.Model
	compile := tr.time("core.compile", root, job, func() {
		p := o.P
		if p == 0 {
			p = core.HeuristicPenalty(ec.problem, o.Alpha)
		}
		im = penalty.Build(ec.problem.Objective, ec.problem.Ext, p).ToIsing()
	})

	var res *core.Result
	coreSolve = tr.time("core.Solve", root, job, func() {
		if ec.replicas > 1 {
			res, err = core.SolveParallelContext(ctx, ec.problem, o, ec.replicas)
		} else {
			res, err = core.SolveContext(ctx, ec.problem, o)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("core solve: %w", err)
	}
	if res.BestCost != ec.wantBest {
		out.checkFailed(fmt.Sprintf("core path best cost %v differs from the backend's %v at the same seed", res.BestCost, ec.wantBest))
	}

	sweeps := float64(o.SweepsPerRun)
	sched := schedule.Linear{Start: 0, End: o.BetaMax}
	dense := pbit.New(im, rng.New(o.Seed))
	denseS := tr.time("pbit.Machine.Sweep", root, job, func() {
		for r := 0; r < ec.denseRuns; r++ {
			dense.Randomize()
			for t := 0; t < o.SweepsPerRun; t++ {
				dense.Sweep(sched.Beta(t, o.SweepsPerRun))
			}
		}
	}) / (float64(ec.denseRuns) * sweeps)
	packed := pbit.NewPackedSparse(im, rng.New(o.Seed))
	packedS := tr.time("pbit.PackedSparseMachine.Sweep", root, job, func() {
		for r := 0; r < ec.packedRuns; r++ {
			packed.Randomize()
			for t := 0; t < o.SweepsPerRun; t++ {
				packed.Sweep(sched.Beta(t, o.SweepsPerRun))
			}
		}
	}) / (float64(ec.packedRuns) * sweeps)

	n := float64(im.N())
	lanes := float64(pbit.Lanes)
	// The kernel the solve ran: packed CSR for a full 64-lane group on a
	// sparse model, the scalar dense kernel otherwise.
	kernelSweeps := float64(res.TotalSweeps)
	kernelS := denseS
	bytes := 0.0
	tr.time("pbit.traffic", root, job, func() {
		if ec.replicas >= pbit.Lanes && core.MachineAuto.Resolve(im) == core.MachineSparse {
			kernelSweeps /= lanes
			kernelS = packedS
			bytes = packedBytesPerSweep(im, o.Seed, sched, o.SweepsPerRun)
		} else {
			bytes = denseBytesPerSweep(im, o.Seed, sched, o.SweepsPerRun)
		}
	})

	out.layer("core.solve_s", "s", coreSolve)
	out.layer("core.self_s", "s", selfTime(coreSolve, kernelSweeps*kernelS))
	out.layer("core.iter_ms", "ms", 1000*coreSolve/float64(res.Iterations)*float64(max(ec.replicas, 1)))
	out.layer("core.compile_ms", "ms", 1000*compile)
	out.layer("core.iterations", "count", float64(res.Iterations))
	out.layer("core.sweeps", "count", float64(res.TotalSweeps))
	out.layer("pbit.sweep_us", "us", 1e6*denseS)
	out.layer("pbit.spin_updates_per_s", "1/s", n/denseS)
	out.layer("pbit.packed_sweep_us", "us", 1e6*packedS)
	out.layer("pbit.lane_updates_per_s", "1/s", lanes*n/packedS)
	out.layer("pbit.bytes_per_sweep", "B", bytes)
	out.layer("pbit.gb_per_s", "GB/s", bytes/kernelS/1e9)
	out.layer("pbit.share_pct", "%", kernelShare(kernelSweeps, kernelS, coreSolve))
	return coreSolve, nil
}
