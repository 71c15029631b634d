// Package pdm implements the Parallel Disk Model (PDM) of Vitter and
// Shriver as used by the paper: problem sizes are measured in data items,
// I/O complexity is measured in block transfers, and the model is
// parameterised by
//
//	N = problem size (items)
//	M = internal memory size (items)
//	B = block transfer size (items)
//	D = number of independent disk drives
//	P = number of CPUs
//
// with M < N and 1 <= D*B <= M/2.  The package provides parameter
// validation, the theoretical sorting bound
//
//	Sort(N) = Theta((n/D) * log_m(n))    where n = N/B, m = M/B,
//
// and thread-safe I/O counters that the disk layer charges so algorithms
// can be checked against their per-step I/O budgets.
package pdm

import (
	"errors"
	"fmt"
	"math"
)

// Params holds the five PDM parameters.  The zero value is not valid; use
// New or fill the fields and call Validate.
type Params struct {
	N int64 // problem size in items
	M int64 // internal memory size in items
	B int64 // block size in items
	D int64 // independent disks
	P int64 // CPUs
}

// ErrInvalidParams wraps all parameter-validation failures.
var ErrInvalidParams = errors.New("pdm: invalid parameters")

// Validate checks the PDM well-formedness constraints: all parameters
// positive, M < N (the problem is out of core), and 1 <= D*B <= M/2 so
// that at least two stripes fit in memory (required by merge- and
// distribution-based methods).
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("%w: N=%d must be positive", ErrInvalidParams, p.N)
	case p.M <= 0:
		return fmt.Errorf("%w: M=%d must be positive", ErrInvalidParams, p.M)
	case p.B <= 0:
		return fmt.Errorf("%w: B=%d must be positive", ErrInvalidParams, p.B)
	case p.D <= 0:
		return fmt.Errorf("%w: D=%d must be positive", ErrInvalidParams, p.D)
	case p.P <= 0:
		return fmt.Errorf("%w: P=%d must be positive", ErrInvalidParams, p.P)
	case p.M >= p.N:
		return fmt.Errorf("%w: M=%d must be smaller than N=%d (problem must be out of core)", ErrInvalidParams, p.M, p.N)
	case p.D*p.B > p.M/2:
		return fmt.Errorf("%w: D*B=%d exceeds M/2=%d", ErrInvalidParams, p.D*p.B, p.M/2)
	}
	return nil
}

// BlocksN returns n = ceil(N/B), the problem size in blocks.
func (p Params) BlocksN() int64 { return ceilDiv(p.N, p.B) }

// BlocksM returns m = floor(M/B), the memory size in blocks.
func (p Params) BlocksM() int64 { return p.M / p.B }

// SortBound returns the PDM sorting bound (n/D)*ceil(log_m n) in block
// I/Os (Theorem 1 of the paper, constants dropped).  For n <= m a single
// pass suffices and the bound degenerates to n/D.
func (p Params) SortBound() int64 {
	n := p.BlocksN()
	m := p.BlocksM()
	passes := LogCeil(n, m)
	if passes < 1 {
		passes = 1
	}
	return ceilDiv(n, p.D) * passes
}

// ScanBound returns the number of block I/Os needed to read the input
// once: ceil(n/D).
func (p Params) ScanBound() int64 { return ceilDiv(p.BlocksN(), p.D) }

// SequentialSortIOs returns the paper's step-1 budget for one node
// holding l items: 2*ceil(l/B)*(1+ceil(log_m ceil(l/B))) block transfers
// (the paper states it in item terms; we use block terms throughout).
func (p Params) SequentialSortIOs(l int64) int64 {
	lb := ceilDiv(l, p.B)
	return 2 * lb * (1 + LogCeil(lb, p.BlocksM()))
}

// PartitionIOs returns the paper's step-3 budget for one node holding q
// items: 2*ceil(q/B) block transfers (read everything once, write
// everything once).
func (p Params) PartitionIOs(q int64) int64 { return 2 * ceilDiv(q, p.B) }

// RedistributionIOs returns the paper's step-4 budget for one node that
// ends up holding l items: 2*ceil(l/B) (read on the sender side, write on
// the receiver side).
func (p Params) RedistributionIOs(l int64) int64 { return 2 * ceilDiv(l, p.B) }

// MergeIOs returns the step-5 budget for one node externally merging
// fanin sorted files totaling q items with a t-tape merger: each pass
// reads and writes every block once, and with fan-in t-1 per pass,
// ceil(log_{t-1} fanin) passes suffice.  Partial tail blocks cost up to
// one extra transfer per input file per pass, covered by the fanin term.
func (p Params) MergeIOs(q, fanin, tapes int64) int64 {
	if fanin <= 0 {
		return 0
	}
	fan := tapes - 1
	if fan < 2 {
		fan = 2
	}
	passes := LogCeil(fanin, fan)
	if passes < 1 {
		passes = 1
	}
	return (2*ceilDiv(q, p.B) + fanin) * passes
}

// LogCeil returns ceil(log_base(x)) for x >= 1 and base >= 2, computed
// with integer arithmetic to avoid float rounding surprises.
func LogCeil(x, base int64) int64 {
	if x <= 1 {
		return 0
	}
	if base < 2 {
		base = 2
	}
	var k int64
	v := int64(1)
	for v < x {
		// Guard against overflow: if v*base would overflow it is
		// certainly >= x for any realistic x.
		if v > math.MaxInt64/base {
			return k + 1
		}
		v *= base
		k++
	}
	return k
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("pdm: division by non-positive block size")
	}
	return (a + b - 1) / b
}

// String renders the parameters in the paper's notation.
func (p Params) String() string {
	return fmt.Sprintf("PDM{N=%d M=%d B=%d D=%d P=%d n=%d m=%d}",
		p.N, p.M, p.B, p.D, p.P, p.BlocksN(), p.BlocksM())
}
