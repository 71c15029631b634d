// Package perf implements the paper's model of heterogeneity: a vector
// of p positive integers giving the relative performance of each node
// ("one processor running 8 times faster than the slowest", etc.), the
// Equation-2 input sizing built on the least common multiple of those
// integers, the proportional data distribution, and the calibration
// protocol that fills the vector by timing the sequential external sort
// on each node.
package perf

import (
	"errors"
	"fmt"
	"math"
)

// Vector is the paper's perf array: perf[i] is the relative speed of
// node i (larger = faster), as a positive integer.  A vector of all ones
// is the homogeneous case.
type Vector []int

// Validate checks that the vector is non-empty with positive entries.
func (v Vector) Validate() error {
	if len(v) == 0 {
		return errors.New("perf: empty vector")
	}
	for i, s := range v {
		if s <= 0 {
			return fmt.Errorf("perf: perf[%d]=%d must be positive", i, s)
		}
	}
	return nil
}

// Homogeneous returns the all-ones vector of length p.
func Homogeneous(p int) Vector {
	v := make(Vector, p)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Sum returns the total of the entries.
func (v Vector) Sum() int64 {
	var s int64
	for _, e := range v {
		s += int64(e)
	}
	return s
}

// Max returns the largest entry.
func (v Vector) Max() int {
	m := v[0]
	for _, e := range v[1:] {
		if e > m {
			m = e
		}
	}
	return m
}

// GCD returns the greatest common divisor of a and b.
func GCD(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// LCM returns the least common multiple of a and b.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / GCD(a, b) * b
}

// LCM returns lcm(perf, p): the least common multiple of all entries
// (the paper's lcm(perf, p)).
func (v Vector) LCM() int64 {
	l := int64(1)
	for _, e := range v {
		l = LCM(l, int64(e))
	}
	return l
}

// Quantum returns Σ_i perf[i] * lcm(perf): the smallest valid input
// size (Equation 2 with k=1).  With perf={8,5,3,1} this is 2040, the
// paper's worked example.
func (v Vector) Quantum() int64 { return v.Sum() * v.LCM() }

// InputSize returns the Equation-2 input size for multiplier k:
// n = k * Σ_i perf[i] * lcm(perf, p).
func (v Vector) InputSize(k int64) int64 { return k * v.Quantum() }

// PracticalQuantum returns lcm(Σperf, lcm(perf)): the weakest size unit
// that keeps every node's share integral and lcm-divisible.  This is
// the condition the paper actually applies in its evaluation: Table 3
// uses N=16777220 for perf={1,1,4,4}, which is a multiple of 20 (this
// quantum) but not of 40 (the literal Equation-2 quantum).
func (v Vector) PracticalQuantum() int64 { return LCM(v.Sum(), v.LCM()) }

// NearestValidSize returns the smallest valid size >= n (the way the
// paper turned 2^24 into 16777220 for perf={1,1,4,4}).
func (v Vector) NearestValidSize(n int64) int64 {
	q := v.PracticalQuantum()
	if n <= q {
		return q
	}
	k := (n + q - 1) / q
	return k * q
}

// Shares splits an Equation-2 input size n into per-node portions
// l_i = (n / Σperf) * perf[i], which are exact integers when n is valid.
// For sizes that do not satisfy Equation 2 it falls back to a
// largest-remainder apportionment that still sums to n (the paper points
// at load-balancing techniques "as in [32]" for this case).
func (v Vector) Shares(n int64) []int64 {
	sum := v.Sum()
	out := make([]int64, len(v))
	if n%sum == 0 {
		unit := n / sum
		for i, s := range v {
			out[i] = unit * int64(s)
		}
		return out
	}
	// Largest-remainder method.
	var assigned int64
	rems := make([]float64, len(v))
	for i, s := range v {
		exact := float64(n) * float64(s) / float64(sum)
		fl := math.Floor(exact)
		out[i] = int64(fl)
		rems[i] = exact - fl
		assigned += out[i]
	}
	for assigned < n {
		best := 0
		for i := 1; i < len(v); i++ {
			if rems[i] > rems[best] {
				best = i
			}
		}
		out[best]++
		rems[best] = -1
		assigned++
	}
	return out
}

// ValidateLoads checks a load (slowdown) vector: every entry must be a
// finite float >= 1.  The condition is written as !(l >= 1) rather than
// l < 1 so that NaN — for which every comparison is false — is rejected
// instead of slipping through and poisoning every derived virtual time.
func ValidateLoads(loads []float64) error {
	if len(loads) == 0 {
		return errors.New("perf: empty load vector")
	}
	for i, l := range loads {
		if !(l >= 1) || math.IsInf(l, 1) {
			return fmt.Errorf("perf: load[%d]=%v must be a finite value >= 1", i, l)
		}
	}
	return nil
}

// Slowdowns converts the vector to per-node cost multipliers for the
// simulator: the fastest class runs at factor 1, a node half as fast at
// factor 2, etc.
func (v Vector) Slowdowns() []float64 {
	m := float64(v.Max())
	out := make([]float64, len(v))
	for i, s := range v {
		out[i] = m / float64(s)
	}
	return out
}

// FromTimes builds a perf vector from per-node sequential sort times
// (the calibration protocol of paper section 5): each node's entry is
// the ratio of the slowest time to its own time, rounded to the nearest
// positive integer.  The slowest node gets 1.
func FromTimes(times []float64) (Vector, error) {
	if len(times) == 0 {
		return nil, errors.New("perf: no times")
	}
	slowest := times[0]
	for _, t := range times {
		if t <= 0 {
			return nil, fmt.Errorf("perf: non-positive time %v", t)
		}
		if t > slowest {
			slowest = t
		}
	}
	v := make(Vector, len(times))
	for i, t := range times {
		r := int(math.Round(slowest / t))
		if r < 1 {
			r = 1
		}
		v[i] = r
	}
	return v, nil
}

func (v Vector) String() string {
	return fmt.Sprintf("%v", []int(v))
}
