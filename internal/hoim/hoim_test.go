package hoim

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
)

func randomPoly(src *rng.Source, n, terms, maxDeg int) *Poly {
	p := NewPoly(n)
	for t := 0; t < terms; t++ {
		deg := src.IntRange(0, maxDeg)
		vars := make([]int, deg)
		for i := range vars {
			vars[i] = src.Intn(n)
		}
		p.Add(src.Sym()*3, vars...)
	}
	return p
}

func randomBits(src *rng.Source, n int) ising.Bits {
	x := make(ising.Bits, n)
	for i := range x {
		if src.Bool(0.5) {
			x[i] = 1
		}
	}
	return x
}

func TestAddMergesAndIdempotes(t *testing.T) {
	p := NewPoly(3)
	p.Add(2, 0, 1)
	p.Add(3, 1, 0) // same monomial, different order
	p.Add(4, 2, 2) // x₂² = x₂
	if p.NumTerms() != 2 {
		t.Fatalf("terms = %d", p.NumTerms())
	}
	x := ising.Bits{1, 1, 1}
	if got := p.Energy(x); got != 9 {
		t.Fatalf("Energy = %v, want 9", got)
	}
	if p.Degree() != 2 {
		t.Fatalf("Degree = %d", p.Degree())
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted out-of-range variable")
		}
	}()
	NewPoly(2).Add(1, 5)
}

func TestEnergyByHandCubic(t *testing.T) {
	// E = 5·x₀x₁x₂ − 2·x₀ + 1
	p := NewPoly(3)
	p.Add(5, 0, 1, 2)
	p.Add(-2, 0)
	p.Add(1)
	cases := []struct {
		x    ising.Bits
		want float64
	}{
		{ising.Bits{0, 0, 0}, 1},
		{ising.Bits{1, 0, 0}, -1},
		{ising.Bits{1, 1, 0}, -1},
		{ising.Bits{1, 1, 1}, 4},
	}
	for _, c := range cases {
		if got := p.Energy(c.x); got != c.want {
			t.Fatalf("E(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDeltaFlipMatchesRecompute(t *testing.T) {
	src := rng.New(3)
	f := func(raw uint8) bool {
		n := int(raw%8) + 2
		p := randomPoly(src, n, 3*n, 4)
		x := randomBits(src, n)
		for i := 0; i < n; i++ {
			before := p.Energy(x)
			delta := p.DeltaFlip(x, i)
			x[i] ^= 1
			after := p.Energy(x)
			x[i] ^= 1
			if math.Abs((after-before)-delta) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Square(p)(x) must equal p(x)² everywhere.
func TestSquareIsPointwiseSquare(t *testing.T) {
	src := rng.New(7)
	f := func(raw uint8) bool {
		n := int(raw%6) + 2
		p := randomPoly(src, n, 2*n, 3)
		sq := Square(p)
		for trial := 0; trial < 20; trial++ {
			x := randomBits(src, n)
			want := p.Energy(x) * p.Energy(x)
			if math.Abs(sq.Energy(x)-want) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSquareDegreeBound(t *testing.T) {
	p := NewPoly(5)
	p.Add(1, 0, 1)
	p.Add(1, 2, 3, 4)
	sq := Square(p)
	if sq.Degree() > 5 {
		t.Fatalf("Square degree = %d, want ≤ 5", sq.Degree())
	}
}

func TestAddPolyScale(t *testing.T) {
	a := NewPoly(2)
	a.Add(2, 0)
	b := NewPoly(2)
	b.Add(3, 0)
	b.Add(1, 0, 1)
	a.AddPoly(2, b)
	x := ising.Bits{1, 1}
	if got := a.Energy(x); got != 2+6+2 {
		t.Fatalf("Energy = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := NewPoly(2)
	a.Add(1, 0)
	c := a.Clone()
	c.Add(5, 0)
	if a.Energy(ising.Bits{1, 0}) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestMachineZeroBetaUniform(t *testing.T) {
	src := rng.New(11)
	p := randomPoly(src, 6, 10, 3)
	m := New(p, src.Split())
	up := make([]int, 6)
	const sweeps = 20000
	for k := 0; k < sweeps; k++ {
		m.Sweep(0)
		for i, v := range m.State() {
			if v == 1 {
				up[i]++
			}
		}
	}
	for i, c := range up {
		if f := float64(c) / sweeps; math.Abs(f-0.5) > 0.02 {
			t.Fatalf("var %d frequency %v at β=0", i, f)
		}
	}
}

func TestMachineFindsGroundStateCubic(t *testing.T) {
	// E = −3·x₀x₁x₂ + x₀ + x₁ + x₂ has minimum 0 at the all-ones and the
	// all-zeros states both? E(1,1,1) = −3+3 = 0; E(0,0,0)=0; single ones
	// cost +1. Make all-ones strictly best with a −0.5 bonus.
	p := NewPoly(3)
	p.Add(-3, 0, 1, 2)
	p.Add(1, 0)
	p.Add(1, 1)
	p.Add(1, 2)
	p.Add(-0.5, 0, 1)
	m := New(p, rng.New(5))
	best := math.Inf(1)
	for k := 0; k < 20; k++ {
		x := m.Anneal(schedule.Linear{Start: 0, End: 8}, 200)
		if e := p.Energy(x); e < best {
			best = e
		}
	}
	// Exhaustive optimum.
	want := math.Inf(1)
	for mask := 0; mask < 8; mask++ {
		x := ising.Bits{int8(mask & 1), int8(mask >> 1 & 1), int8(mask >> 2 & 1)}
		if e := p.Energy(x); e < want {
			want = e
		}
	}
	if best != want {
		t.Fatalf("annealer best %v, exhaustive %v", best, want)
	}
}

// SAIM with a *quadratic* constraint — impossible for the standard linear-g
// pipeline, natural here: minimize −x₂−x₃ subject to x₀·x₁ = 1 (both
// gates on) and x₀+x₁+x₂+x₃ = 3 (exactly three active).
// Feasible ⇒ x₀=x₁=1 and exactly one of x₂,x₃ ⇒ OPT = −1.
func TestSolveConstrainedQuadraticConstraint(t *testing.T) {
	f := NewPoly(4)
	f.Add(-1, 2)
	f.Add(-1, 3)

	g1 := NewPoly(4) // x₀x₁ − 1 = 0
	g1.Add(1, 0, 1)
	g1.Add(-1)

	g2 := NewPoly(4) // Σx − 3 = 0
	for i := 0; i < 4; i++ {
		g2.Add(1, i)
	}
	g2.Add(-3)

	res, err := SolveConstrainedContext(context.Background(), f, []*Poly{g1, g2}, 1e-9, Options{
		P: 2, Eta: 0.5, Iterations: 150, SweepsPerRun: 150, BetaMax: 8, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible sample")
	}
	if res.BestCost != -1 {
		t.Fatalf("BestCost = %v, want -1", res.BestCost)
	}
	if res.Best[0] != 1 || res.Best[1] != 1 {
		t.Fatalf("gates not both on: %v", res.Best)
	}
	if res.Best[2]+res.Best[3] != 1 {
		t.Fatalf("want exactly one of x₂,x₃: %v", res.Best)
	}
}

func TestSolveConstrainedDimensionMismatch(t *testing.T) {
	f := NewPoly(3)
	g := NewPoly(2)
	if _, err := SolveConstrainedContext(context.Background(), f, []*Poly{g}, 1e-9, Options{}); err == nil {
		t.Fatal("accepted mismatched constraint")
	}
}

func TestSolveConstrainedDeterministic(t *testing.T) {
	f := NewPoly(3)
	f.Add(-1, 0)
	g := NewPoly(3)
	g.Add(1, 0)
	g.Add(1, 1)
	g.Add(-1)
	run := func() *Result {
		r, err := SolveConstrainedContext(context.Background(), f, []*Poly{g}, 1e-9, Options{
			P: 1, Eta: 0.5, Iterations: 40, SweepsPerRun: 60, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.BestCost != b.BestCost || a.FeasibleCount != b.FeasibleCount {
		t.Fatal("same seed, different outcomes")
	}
}

func TestSweepsCounter(t *testing.T) {
	p := NewPoly(2)
	p.Add(1, 0)
	m := New(p, rng.New(1))
	m.Anneal(schedule.Linear{End: 5}, 13)
	if m.Sweeps() != 13 {
		t.Fatalf("Sweeps = %d", m.Sweeps())
	}
}
