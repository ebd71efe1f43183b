package saim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// OptionsFingerprint returns a hash-stable hex digest of the
// solve-relevant settings carried by an option list. Two option lists
// fingerprint identically exactly when they configure the same solve:
// every deterministic knob — penalty parameters, budgets, seed, limits,
// warm start, decomposition and race settings — is folded into the
// digest in a fixed order. WithProgress is deliberately excluded: a
// progress callback observes a solve without changing it, so two
// submissions differing only in observation dedup to one.
//
// The digest is stable across processes and platforms for a given library
// version (it hashes explicit field encodings, never Go runtime
// representations); it is not guaranteed stable across versions that add
// or remove options. A solve service combines it with
// model.Model.Fingerprint to key its result cache.
func OptionsFingerprint(opts ...Option) string {
	c := buildConfig(opts)
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}

	f64(c.alpha)
	f64(c.penalty)
	f64(c.eta)
	u64(uint64(c.iterations))
	u64(uint64(c.sweepsPerRun))
	f64(c.betaMax)
	u64(c.seed)
	u64(uint64(c.replicas))
	u64(uint64(c.population))
	u64(uint64(c.timeLimit))
	u64(uint64(c.nodeLimit))
	if c.targetCost != nil {
		u64(1)
		f64(*c.targetCost)
	} else {
		u64(0)
	}
	u64(uint64(c.patience))
	u64(uint64(len(c.initial)))
	for _, v := range c.initial {
		u64(uint64(v))
	}
	u64(uint64(c.subSize))
	str(c.innerSolver)
	u64(uint64(c.rounds))
	if c.tabuTenure != nil {
		u64(1)
		u64(uint64(*c.tabuTenure))
	} else {
		u64(0)
	}
	u64(uint64(len(c.racers)))
	for _, r := range c.racers {
		str(r)
	}

	sum := h.Sum(nil)
	return hex.EncodeToString(sum)
}
