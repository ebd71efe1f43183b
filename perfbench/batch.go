package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/internal/coloring"
	"github.com/ising-machines/saim/internal/constraint"
	"github.com/ising-machines/saim/internal/core"
	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/model"
	"github.com/ising-machines/saim/problems"
	"github.com/ising-machines/saim/service"
)

// batchCase is an in-process workload: one fixed instance, solved
// repeatedly at a fixed iterations × sweeps budget with seeds drawn from
// the workload seed.
type batchCase struct {
	name     string
	replicas int
	// setup generates the instance, builds and compiles the model and
	// computes the reference; everything it does counts in setup_s.
	setup func(tr *tracer, parent int) (*batchInst, error)
	// denseRuns and packedRuns size the kernel probes of the traced run.
	denseRuns, packedRuns int
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median. A set-up of milliseconds needs more repetitions to steady.
	setupReps int
	// solveS is the nominal time of one solve on a 2-CPU host: a run
	// makes round(--seconds / solveS) solves, a count fixed by the
	// arguments so that every count of a seeded run repeats exactly.
	solveS float64
}

type batchInst struct {
	decl     *model.Model
	compiled *saim.Model
	opts     []saim.Option        // budget and paper settings; seed and progress are added per solve
	wire     service.SolveOptions // the same settings in wire form, for the saimserve probe
	target   float64              // a solve succeeds when its best cost reaches this
	ref      float64              // reference cost
	gap      bool                 // report gap_pct against ref
	refS     float64              // time of the reference computation
	// verify checks a result beyond Model.Evaluate.
	verify func(res *saim.Result) error
	// engine returns the equivalent core problem and options for a seed.
	engine func(seed uint64) (*core.Problem, core.Options)

	buildS, compileS, allocMB float64
	gcCycles, terms           int
}

// qkp300 is the paper's headline instance: QKP with N=300 items and 50%
// pair density (the 300-50-8 analog, instance 8 of the generator), built
// through problems.Knapsack and Model.Compile and solved by the "saim"
// backend with one replica at the paper's Table I QKP settings.
func qkp300() batchCase {
	return batchCase{name: "qkp300", replicas: 1, setup: setupQKP300, denseRuns: 100, packedRuns: 4, setupReps: 12, solveS: 4}
}

const (
	qkpN, qkpDensity, qkpID = 300, 0.5, 8
	// qkpInstanceSeed is the generator seed cmd/saimgen derives from its
	// arguments for `saimgen -n 300 -density 0.5 -id 8`, so the instance
	// is the one the repository's own generator names 300-50-8.
	qkpInstanceSeed    = 11679420211968774028
	qkpRuns, qkpSweeps = 1000, 1000
)

func setupQKP300(tr *tracer, parent int) (*batchInst, error) {
	var inst *qkp.Instance
	tr.time("qkp.Generate", parent, "setup", func() { inst = qkp.Generate(qkpN, qkpDensity, qkpID, qkpInstanceSeed) })
	b := &batchInst{gap: true}
	var p *problems.KnapsackProblem
	var err error
	b.measureBuild(tr, parent, "problems.Knapsack", func() { p, err = problems.Knapsack(knapsackSpec(inst)) })
	if err != nil {
		return nil, err
	}
	if err := b.compile(tr, parent, p.Model); err != nil {
		return nil, err
	}
	var g *saim.Result
	b.refS = tr.time("saim.SolveModel/greedy", parent, "setup", func() {
		g, err = saim.SolveModel(context.Background(), "greedy", b.compiled)
	})
	if err != nil {
		return nil, err
	}
	if err := evaluateResult(b.compiled, g); err != nil {
		return nil, fmt.Errorf("greedy reference: %w", err)
	}
	b.ref, b.target = g.Cost, g.Cost
	b.opts = append(p.Recommended(), saim.WithIterations(qkpRuns), saim.WithSweepsPerRun(qkpSweeps))
	b.wire = service.SolveOptions{Alpha: 2, Eta: 20, BetaMax: 10, Iterations: qkpRuns, SweepsPerRun: qkpSweeps}
	b.engine = func(seed uint64) (*core.Problem, core.Options) {
		return inst.ToProblem(constraint.Binary), core.Options{
			Alpha: 2, Eta: 20, BetaMax: 10, Iterations: qkpRuns, SweepsPerRun: qkpSweeps, Seed: seed,
		}
	}
	return b, nil
}

// knapsackSpec is the problems-catalog form of a QKP instance.
func knapsackSpec(inst *qkp.Instance) problems.KnapsackSpec {
	n := inst.N
	spec := problems.KnapsackSpec{
		Values:     make([]float64, n),
		PairValues: make([][]float64, n),
		Weights:    [][]float64{make([]float64, n)},
		Capacities: []float64{float64(inst.B)},
		Density:    inst.Density,
	}
	for i := 0; i < n; i++ {
		spec.Values[i] = float64(inst.H[i])
		spec.Weights[0][i] = float64(inst.A[i])
		spec.PairValues[i] = make([]float64, n)
		for j, w := range inst.W[i] {
			spec.PairValues[i][j] = float64(w)
		}
	}
	return spec
}

// colorPacked is graph coloring of a sparse random graph in one-hot form
// (a few hundred spins), solved with 64 replicas: one full 64-lane task
// on the packed CSR kernel and one worker. The target is a proper
// coloring (cost 0) with one color fewer than the greedy heuristic
// needs, so a solve must beat the reference.
func colorPacked() batchCase {
	return batchCase{name: "color-packed", replicas: 64, setup: setupColor, denseRuns: 200, packedRuns: 20, setupReps: 51, solveS: 1.8}
}

const (
	colorN, colorP       = 80, 0.08
	colorInstanceSeed    = 1
	colorRuns, colorSwps = 100, 100
)

func setupColor(tr *tracer, parent int) (*batchInst, error) {
	var g problems.Graph
	tr.time("problems.RandomGraph", parent, "setup", func() { g = problems.RandomGraph(colorN, colorP, 1, colorInstanceSeed) })
	ig := coloring.NewGraph(g.N)
	for _, e := range g.Edges {
		ig.AddEdge(e.U, e.V)
	}
	b := &batchInst{}
	var k int
	b.refS = tr.time("coloring.Greedy", parent, "setup", func() { _, k = coloring.Greedy(ig) })
	k--
	var p *problems.ColoringProblem
	var err error
	b.measureBuild(tr, parent, "problems.Coloring", func() { p, err = problems.Coloring(g, k) })
	if err != nil {
		return nil, err
	}
	if err := b.compile(tr, parent, p.Model); err != nil {
		return nil, err
	}
	b.ref, b.target = 0, 0
	b.opts = append(p.Recommended(), saim.WithIterations(colorRuns), saim.WithSweepsPerRun(colorSwps), saim.WithReplicas(64))
	b.wire = service.SolveOptions{Penalty: 2, Eta: 1, BetaMax: 20, Iterations: colorRuns, SweepsPerRun: colorSwps, Replicas: 64}
	b.verify = func(res *saim.Result) error {
		if res.Cost != 0 {
			return nil
		}
		colors, ok := p.Colors(model.NewSolution(p.Model, res))
		if !ok {
			return fmt.Errorf("cost-0 coloring does not decode to one color per vertex")
		}
		if c := p.Conflicts(colors); c != 0 {
			return fmt.Errorf("cost-0 coloring has %d conflicts", c)
		}
		return nil
	}
	b.engine = func(seed uint64) (*core.Problem, core.Options) {
		return coloring.ToProblem(ig, k), core.Options{
			P: 2, Eta: 1, BetaMax: 20, Iterations: colorRuns, SweepsPerRun: colorSwps, Seed: seed,
		}
	}
	return b, nil
}

// measureBuild times a problems constructor and counts its allocation and
// garbage-collection cycles.
func (b *batchInst) measureBuild(tr *tracer, parent int, name string, build func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.buildS = tr.time(name, parent, "setup", build)
	runtime.ReadMemStats(&after)
	b.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	b.gcCycles = int(after.NumGC - before.NumGC)
}

func (b *batchInst) compile(tr *tracer, parent int, decl *model.Model) error {
	b.decl = decl
	if err := decl.ObjectiveTerms(func(float64, []int) { b.terms++ }); err != nil {
		return err
	}
	var err error
	b.compileS = tr.time("model.Compile", parent, "setup", func() { b.compiled, err = decl.Compile() })
	return err
}

// evaluateResult re-evaluates a result's assignment on the model and
// matches cost and feasibility against what the solver reported.
func evaluateResult(m *saim.Model, res *saim.Result) error {
	if res.Infeasible() {
		return nil
	}
	cost, feasible, err := m.Evaluate(res.Assignment)
	if err != nil {
		return err
	}
	if !feasible {
		return fmt.Errorf("reported feasible assignment violates a constraint")
	}
	if !sameCost(cost, res.Cost) {
		return fmt.Errorf("reported cost %v, assignment evaluates to %v", res.Cost, cost)
	}
	return nil
}

func sameCost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }

// solveRec is one fixed-budget registry solve.
type solveRec struct {
	res      *saim.Result
	wall     float64   // seconds
	samples  int       // annealing runs over all replicas
	runLat   []float64 // ms per annealing run (all replicas advancing one run)
	toTarget int       // samples when the best cost first reached the target (0: never)
	tts      float64   // seconds to that point
}

func solveOnce(ctx context.Context, tr *tracer, bc batchCase, b *batchInst, seed uint64, job string) (*solveRec, error) {
	rec := &solveRec{}
	var start, last time.Time
	progress := saim.WithProgress(func(p saim.Progress) {
		now := time.Now()
		rec.samples = p.Iteration + 1
		if rec.samples%bc.replicas == 0 {
			rec.runLat = append(rec.runLat, 1000*now.Sub(last).Seconds())
			last = now
		}
		if rec.toTarget == 0 && p.BestCost <= b.target {
			rec.toTarget = rec.samples
			rec.tts = now.Sub(start).Seconds()
		}
	})
	opts := append(append([]saim.Option(nil), b.opts...), saim.WithSeed(seed), progress)
	var err error
	start = time.Now()
	last = start
	rec.res, err = saim.SolveModel(ctx, "saim", b.compiled, opts...)
	end := time.Now()
	rec.wall = end.Sub(start).Seconds()
	tr.add("saim.SolveModel/saim", -1, job, start, end)
	return rec, err
}

func runBatch(ctx context.Context, cfg config, bc batchCase, out *outcome, tr *tracer) error {
	// A fixed number of fixed-budget solves, about --seconds long, with
	// the set-ups spread evenly between them: a slow spell of a shared
	// host then hits a few samples of each metric rather than all of one.
	// The first instance is the one solved.
	solves := max(1, int(math.Round(cfg.seconds/bc.solveS)))
	reps := max(bc.setupReps, solves)
	// Each set-up and each solve starts from a settled heap handed back to
	// the OS, with the peak-RSS mark reset, so every repetition starts
	// alike and its memory peak is its own. peak_rss_mb is the median of
	// the solves' peaks: the set-up peak is garbage from the model build,
	// whose height follows the collector's timing (it is reported beside
	// the result).
	settle := func() error {
		debug.FreeOSMemory()
		return resetPeakRSS()
	}
	var b *batchInst
	var setups, builds, compiles, refs, setupRSS, solveRSS []float64
	var recs []*solveRec
	for i := 0; i < solves; i++ {
		for len(setups) < reps*(i+1)/solves {
			if err := settle(); err != nil {
				return err
			}
			root := tr.begin("setup", -1, "setup")
			start := time.Now()
			inst, err := bc.setup(tr, root)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
			tr.end(root)
			rss, err := peakRSSMB("self")
			if err != nil {
				return err
			}
			setupRSS = append(setupRSS, rss)
			builds, compiles, refs = append(builds, inst.buildS), append(compiles, inst.compileS), append(refs, inst.refS)
			if b == nil {
				b = inst
			}
		}

		if err := settle(); err != nil {
			return err
		}
		rec, err := solveOnce(ctx, newTracer(false), bc, b, mix(cfg.seed, uint64(i)), "")
		if err != nil {
			return fmt.Errorf("solve %d: %w", i, err)
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		solveRSS = append(solveRSS, rss)
		recs = append(recs, rec)
		out.attempted++
		if !checkSolve(out, bc, b, rec) {
			out.failed++
		}
	}

	var walls, lat, ratios, toTarget, tts, gaps []float64
	var sweeps, samples float64
	for _, r := range recs {
		walls = append(walls, r.wall)
		lat = append(lat, r.runLat...)
		ratios = append(ratios, r.res.FeasibleRatio)
		sweeps += float64(r.res.Sweeps)
		samples += float64(r.samples)
		if r.toTarget > 0 {
			toTarget = append(toTarget, float64(r.toTarget))
			tts = append(tts, r.tts)
		}
		if !r.res.Infeasible() {
			gaps = append(gaps, 100*(r.res.Cost-b.ref)/math.Abs(b.ref))
		}
	}
	if !supported(len(lat), 0.9) {
		return fmt.Errorf("only %d annealing-run samples; p90 needs %d beyond it", len(lat), minBeyond)
	}
	out.endToEnd("setup_s", "s", median(setups))
	out.endToEnd("solve_s", "s", median(walls))
	out.endToEnd("sweeps_per_s", "1/s", sweeps/sum(walls))
	out.endToEnd("feasible_ratio", "%", mean(ratios))
	out.endToEnd("peak_rss_mb", "MB", median(solveRSS))
	out.report("run_latency_p50_ms", "ms", median(lat))
	out.report("run_latency_p90_ms", "ms", quantile(lat, 0.9))
	out.report("samples_per_s", "1/s", samples/sum(walls))
	out.report("setup_peak_rss_mb", "MB", median(setupRSS))
	out.report("solve_peak_rss_max_mb", "MB", quantile(solveRSS, 1))
	out.report("setup_min_s", "s", quantile(setups, 0))
	out.report("setup_max_s", "s", quantile(setups, 1))
	out.report("setups", "count", float64(len(setups)))
	out.report("solves", "count", float64(len(recs)))
	out.report("latency_samples", "count", float64(len(lat)))
	out.report("target_hits", "count", float64(len(toTarget)))
	if len(toTarget) > 0 {
		out.report("samples_to_target", "count", median(toTarget))
		out.report("tts_s", "s", median(tts))
	}
	if b.gap && len(gaps) > 0 {
		out.report("gap_pct", "%", median(gaps))
	}
	out.report("reference_cost", "count", b.ref)
	if !recs[0].res.Infeasible() {
		out.report("best_cost", "count", recs[0].res.Cost)
	}

	if !cfg.trace {
		return nil
	}

	// Traced pass: the registry solve again at the first seed with spans,
	// then the engine and kernels on the equivalent core problem, then
	// the same model once through saimserve.
	out.layer("model.build_s", "s", median(builds))
	out.layer("model.compile_s", "s", median(compiles))
	out.layer("model.alloc_mb", "MB", b.allocMB)
	out.layer("model.gc_cycles", "count", float64(b.gcCycles))
	out.layer("model.terms", "count", float64(b.terms))
	out.layer("saim.greedy_ms", "ms", 1000*median(refs))

	seed := mix(cfg.seed, 0)
	traced, err := solveOnce(ctx, tr, bc, b, seed, "solve-0")
	if err != nil {
		return err
	}
	if traced.res.Cost != recs[0].res.Cost {
		out.checkFailed(fmt.Sprintf("traced solve found %v, untraced %v at the same seed", traced.res.Cost, recs[0].res.Cost))
	}
	out.layer("saim.solve_s", "s", traced.wall)
	out.layer("trace.overhead_pct", "%", 100*(traced.wall-recs[0].wall)/recs[0].wall)

	cp, co := b.engine(seed)
	coreS, err := engineLayers(ctx, tr, "solve-0", engineCase{
		problem: cp, opts: co, replicas: bc.replicas, wantBest: recs[0].res.Cost,
		denseRuns: bc.denseRuns, packedRuns: bc.packedRuns,
	}, out)
	if err != nil {
		return err
	}
	out.layer("saim.self_s", "s", selfTime(traced.wall, coreS))

	return serveOneBatchJob(ctx, cfg, bc, b, seed, recs[0].res, out, tr)
}

// checkSolve applies the output checks to one solve and reports whether
// the operation succeeded (feasible and on target). A mismatch between
// the result and its re-evaluation is a check failure.
func checkSolve(out *outcome, bc batchCase, b *batchInst, r *solveRec) bool {
	if err := evaluateResult(b.compiled, r.res); err != nil {
		out.checkFailed(fmt.Sprintf("%s: %v", bc.name, err))
		return false
	}
	if b.verify != nil {
		if err := b.verify(r.res); err != nil {
			out.checkFailed(fmt.Sprintf("%s: %v", bc.name, err))
			return false
		}
	}
	if r.res.Infeasible() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no feasible assignment\n", bc.name)
		return false
	}
	if r.res.Cost > b.target {
		fmt.Fprintf(os.Stderr, "perfbench: %s: best cost %v misses target %v\n", bc.name, r.res.Cost, b.target)
		return false
	}
	return true
}
