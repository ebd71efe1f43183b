package problems_test

import (
	"runtime"
	"testing"

	"github.com/ising-machines/saim/internal/qkp"
	"github.com/ising-machines/saim/problems"
)

// A 300-item, 50%-density QKP, the paper's headline size, carries about
// 22k pair terms. Knapsack must gather them into one Sum, not fold them
// with Add, which copies the growing term list per pair (about 6 GB for
// this instance). The fingerprint pins that the one-pass build declares
// the same model the fold did.
func TestKnapsackBuildAllocatesOnce(t *testing.T) {
	inst := qkp.Generate(300, 0.5, 1, 1)
	spec := problems.KnapsackSpec{
		Values:     make([]float64, inst.N),
		PairValues: make([][]float64, inst.N),
		Weights:    [][]float64{make([]float64, inst.N)},
		Capacities: []float64{float64(inst.B)},
		Density:    inst.Density,
	}
	for i := range inst.N {
		spec.Values[i] = float64(inst.H[i])
		spec.Weights[0][i] = float64(inst.A[i])
		spec.PairValues[i] = make([]float64, inst.N)
		for j, w := range inst.W[i] {
			spec.PairValues[i][j] = float64(w)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := problems.Knapsack(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 64 {
		t.Errorf("Knapsack allocated %.0f MB building a 300-item QKP; want under 64 MB", mb)
	}
	fp, err := p.Model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := "fbfa712b29594739c765b663175da1d264b81104e83ae280639dc870344bbda7"; fp != want {
		t.Errorf("fingerprint %s, want %s", fp, want)
	}
}
