// Package coloring solves graph k-coloring with the self-adaptive Ising
// machine, demonstrating SAIM on *equality* constraints (the one-hot rows
// Σ_c x_{v,c} = 1). Constraints of this shape model the "sequences of
// operations for job-shop scheduling" and assignment structures the
// paper's introduction lists as motivating applications.
//
// Encoding: binary variable x_{v,c} (vertex v gets color c); the objective
// counts monochromatic edges Σ_{(u,v)∈E} Σ_c x_{u,c}·x_{v,c}, and each
// vertex carries the equality constraint Σ_c x_{v,c} = 1. A zero-cost
// feasible sample is a proper coloring.
package coloring

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

// Graph is an unweighted undirected graph on [0, N).
type Graph struct {
	N     int
	Edges [][2]int
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic("coloring: NewGraph requires n > 0")
	}
	return &Graph{N: n}
}

// AddEdge appends an undirected edge.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.N || v < 0 || v >= g.N || u == v {
		panic(fmt.Sprintf("coloring: bad edge (%d,%d)", u, v))
	}
	g.Edges = append(g.Edges, [2]int{u, v})
}

// Random draws a G(n,p) graph deterministically from seed.
func Random(n int, p float64, seed uint64) *Graph {
	src := rng.New(seed)
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Bool(p) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Cycle returns the n-cycle.
func Cycle(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Conflicts counts monochromatic edges under the given color assignment.
func (g *Graph) Conflicts(colors []int) int {
	if len(colors) != g.N {
		panic("coloring: Conflicts dimension mismatch")
	}
	c := 0
	for _, e := range g.Edges {
		if colors[e[0]] == colors[e[1]] {
			c++
		}
	}
	return c
}

// Greedy colors vertices in index order with the smallest available color
// and returns the assignment plus the number of colors used. It upper-
// bounds the chromatic number (≤ maxdegree+1).
func Greedy(g *Graph) ([]int, int) {
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	colors := make([]int, g.N)
	for i := range colors {
		colors[i] = -1
	}
	used := 0
	for v := 0; v < g.N; v++ {
		taken := map[int]bool{}
		for _, u := range adj[v] {
			if colors[u] >= 0 {
				taken[colors[u]] = true
			}
		}
		c := 0
		for taken[c] {
			c++
		}
		colors[v] = c
		if c+1 > used {
			used = c + 1
		}
	}
	return colors, used
}

// ToProblem encodes k-coloring of g as a SAIM problem over N·k one-hot
// variables.
func ToProblem(g *Graph, k int) *core.Problem {
	if k < 1 {
		panic("coloring: k must be ≥ 1")
	}
	nVars := g.N * k
	idx := func(v, c int) int { return v*k + c }

	sys := constraint.NewSystem(nVars)
	for v := 0; v < g.N; v++ {
		row := vecmat.NewVec(nVars)
		for c := 0; c < k; c++ {
			row[idx(v, c)] = 1
		}
		sys.Add(row, constraint.EQ, 1)
	}
	ext := sys.Extend(constraint.Binary) // equalities: no slack bits
	ext.Normalize()

	obj := ising.NewQUBO(ext.NTotal)
	for _, e := range g.Edges {
		for c := 0; c < k; c++ {
			obj.AddQuad(idx(e[0], c), idx(e[1], c), 1)
		}
	}
	obj.Normalize()

	gCopy := *g
	return &core.Problem{
		Objective: obj,
		Ext:       ext,
		Cost: func(x ising.Bits) float64 {
			colors, ok := Decode(&gCopy, k, x)
			if !ok {
				// Defensive: feasibility gating should prevent this.
				return math.Inf(1)
			}
			return float64(gCopy.Conflicts(colors))
		},
		// One-hot rows couple k(k-1)/2 pairs per vertex plus edge terms;
		// use the measured density (leave zero).
	}
}

// Decode maps a one-hot assignment back to colors. ok is false when some
// vertex is not exactly-one-hot.
func Decode(g *Graph, k int, x ising.Bits) ([]int, bool) {
	colors := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		found := -1
		for c := 0; c < k; c++ {
			if x[v*k+c] == 1 {
				if found >= 0 {
					return nil, false
				}
				found = c
			}
		}
		if found < 0 {
			return nil, false
		}
		colors[v] = found
	}
	return colors, true
}

// Options tunes Solve; zero values get coloring-appropriate defaults.
type Options struct {
	Iterations   int
	SweepsPerRun int
	Eta          float64
	Penalty      float64
	BetaMax      float64
	Seed         uint64
}

// Result reports a coloring attempt.
type Result struct {
	// Colors is the best feasible assignment found (nil if none).
	Colors []int
	// Conflicts is the number of monochromatic edges of Colors.
	Conflicts int
	// Proper reports a zero-conflict coloring.
	Proper bool
	// FeasibleRatio is the percentage of one-hot-feasible samples.
	FeasibleRatio float64
}

// Solve runs SAIM on the k-coloring of g.
func Solve(g *Graph, k int, o Options) (*Result, error) {
	p := ToProblem(g, k)
	res, err := core.SolveContext(context.Background(), p, core.Options{
		Iterations:   defInt(o.Iterations, 300),
		SweepsPerRun: defInt(o.SweepsPerRun, 300),
		Eta:          defF(o.Eta, 1),
		P:            defF(o.Penalty, 2),
		BetaMax:      defF(o.BetaMax, 20),
		Seed:         o.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{FeasibleRatio: res.FeasibleRatio()}
	if res.Best != nil {
		colors, ok := Decode(g, k, res.Best)
		if !ok {
			return nil, fmt.Errorf("coloring: internal error — feasible sample not one-hot")
		}
		out.Colors = colors
		out.Conflicts = g.Conflicts(colors)
		out.Proper = out.Conflicts == 0
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
