package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the reporting rule for timings: a percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo] // also keeps +Inf samples from producing NaN
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supported reports whether the q-percentile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool {
	below := int(math.Ceil(q*float64(n) - 1e-9))
	return n-below >= minBeyond
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// selfTime is a layer's own time by subtraction: its span minus the part
// of that span its child layer covers. It may come out slightly negative
// when the child was timed on a separate run; the value is reported as
// measured.
func selfTime(total, child float64) float64 { return total - child }

// kernelShare is the percentage of an engine's solve time spent in the
// sweep kernel: sweeps × per-sweep time over the solve time.
func kernelShare(sweeps, sweepSeconds, solveSeconds float64) float64 {
	if solveSeconds <= 0 {
		return math.NaN()
	}
	return 100 * sweeps * sweepSeconds / solveSeconds
}

// peakRSSMB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status, in MB. pid "self" reads the calling process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 || fields[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts the calling process's VmHWM from its current
// resident set (Linux clear_refs), so a peak can be read per phase.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// mix derives the i-th stream seed from a workload seed (splitmix64), so
// every solve, job and arrival schedule of a run follows from --seed.
func mix(seed uint64, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // a zero seed means "backend default" on the wire
	}
	return z
}
