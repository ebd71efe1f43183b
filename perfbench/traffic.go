package main

import (
	"github.com/ising-machines/saim/internal/ising"
	"github.com/ising-machines/saim/internal/pbit"
	"github.com/ising-machines/saim/internal/rng"
	"github.com/ising-machines/saim/internal/schedule"
)

// The kernels' memory traffic is computed, not measured: one untimed
// annealing run is replayed with the probe's seed, the flips of every
// sweep are counted from the spin states, and each access the kernel
// makes is priced at its array element size. Caches are ignored, so the
// figure is bytes requested by the kernel, not bytes from DRAM.

// denseBytesPerSweep prices the dense scalar kernel (pbit.Machine): per
// sweep it fills and reads one noise value and reads one field and one
// spin per p-bit; each flip walks one coupling row and updates every
// field (read and write).
func denseBytesPerSweep(im *ising.Model, seed uint64, sched schedule.Schedule, sweeps int) float64 {
	n := float64(im.N())
	m := pbit.New(im, rng.New(seed))
	m.Randomize()
	prev := m.State().Clone()
	flips := 0
	for t := 0; t < sweeps; t++ {
		m.Sweep(sched.Beta(t, sweeps))
		for i, s := range m.State() {
			if s != prev[i] {
				flips++
				prev[i] = s
			}
		}
	}
	perSweep := 8*n + 8*n + 8*n + n
	perFlip := 8*n + 16*n
	return perSweep + perFlip*float64(flips)/float64(sweeps)
}

// packedBytesPerSweep prices the packed CSR kernel
// (pbit.PackedSparseMachine): per sweep it fills and reads 64 noise
// values and reads 64 lane fields per p-bit and updates the packed spin
// word; a p-bit with flipping lanes walks its CSR row (4-byte column,
// 8-byte weight) and updates the neighbours' fields of the flipping
// lanes: one lane for a single flip, whole 4-lane groups otherwise.
func packedBytesPerSweep(im *ising.Model, seed uint64, sched schedule.Schedule, sweeps int) float64 {
	n := im.N()
	nnz := make([]float64, n)
	for i := 0; i < n; i++ {
		for j, w := range im.J.Row(i) {
			if j != i && w != 0 {
				nnz[i]++
			}
		}
	}
	m := pbit.NewPackedSparse(im, rng.New(seed))
	m.Randomize()
	states := func() []ising.Spins {
		out := make([]ising.Spins, pbit.Lanes)
		for r := range out {
			out[r] = ising.NewSpins(n)
			m.LaneStateInto(out[r], r)
		}
		return out
	}
	prev := states()
	rowBytes := 0.0
	for t := 0; t < sweeps; t++ {
		m.Sweep(sched.Beta(t, sweeps))
		cur := states()
		for i := 0; i < n; i++ {
			lanes := 0
			var groups [pbit.Lanes / 4]bool
			ng := 0
			for r := 0; r < pbit.Lanes; r++ {
				if cur[r][i] != prev[r][i] {
					lanes++
					if !groups[r/4] {
						groups[r/4] = true
						ng++
					}
				}
			}
			switch {
			case lanes == 1:
				rowBytes += 12*nnz[i] + 16*nnz[i]
			case lanes > 1:
				rowBytes += 12*nnz[i] + 64*float64(ng)*nnz[i]
			}
		}
		prev = cur
	}
	lanes := float64(pbit.Lanes)
	perSweep := float64(n) * (8*lanes + 8*lanes + 8*lanes + 16)
	return perSweep + rowBytes/float64(sweeps)
}
