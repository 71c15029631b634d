package pdm

import "hetsort/internal/enum"

// This file models Figure 1 of the paper: the two canonical PDM
// organisations.  In organisation (a) a single CPU drives all D disks; in
// organisation (b) each of the D disks is attached to its own processor
// (the realistic layout for a cluster, and the one Algorithm 1 assumes
// with D=1 per node).  Striping turns D disks into one logical disk with
// block size D*B, which simplifies programming but can cost an extra
// log-factor because the effective number of memory blocks m shrinks.

// Organization identifies one of the two PDM layouts of Figure 1.
type Organization int

const (
	// SingleCPU is organisation (a): P=1, D disks on a common CPU.
	SingleCPU Organization = iota
	// PerProcessorDisk is organisation (b): P=D, one disk per processor.
	PerProcessorDisk
)

func (o Organization) String() string {
	switch o {
	case SingleCPU:
		return "P=1, D disks on one CPU"
	case PerProcessorDisk:
		return "P=D, one disk per processor"
	default:
		return "unknown organisation"
	}
}

// AccessMode distinguishes how the D disks are driven.
type AccessMode int

const (
	// Striped treats the D disks as one logical disk with logical
	// block size D*B; every I/O moves one stripe.
	Striped AccessMode = iota
	// Independent drives the D disks independently; reads may hit any
	// subset, writes are striped (the discipline Theorem 1 assumes).
	Independent
)

var accessModeNames = enum.Table[AccessMode]{Kind: "disk access mode", Names: []string{"striped", "independent"}}

func (a AccessMode) String() string                { return accessModeNames.Name(a) }
func (a AccessMode) MarshalText() ([]byte, error)  { return accessModeNames.Marshal(a) }
func (a *AccessMode) UnmarshalText(b []byte) error { return accessModeNames.Unmarshal(a, b) }

// SortIOs returns the number of parallel I/O steps an optimal sort needs
// under the given access mode.  With striping the model collapses to a
// single disk with block size D*B, so the radix of the log drops from
// m = M/B to M/(D*B); with independent access the full Theorem-1 bound
// applies.  The returned unit is "parallel I/O steps" (each step moves up
// to D blocks).
func (p Params) SortIOs(mode AccessMode) int64 {
	switch mode {
	case Striped:
		logicalB := p.D * p.B
		n := ceilDiv(p.N, logicalB)
		m := p.M / logicalB
		// Degenerate regime: with M < 2*D*B the memory cannot hold two
		// logical blocks, so the striped merge degree m is 0 or 1 and
		// log_m is undefined.  The best a striped sort can still do is a
		// binary merge over partial stripes, so clamp the radix to 2
		// explicitly rather than relying on LogCeil's silent floor.
		if m < 2 {
			m = 2
		}
		passes := LogCeil(n, m)
		if passes < 1 {
			passes = 1
		}
		return n * passes
	case Independent:
		return p.SortBound()
	default:
		panic("pdm: unknown access mode")
	}
}

// StripedPenalty returns the ratio of striped to independent parallel
// I/O steps for these parameters; >= 1, and grows when M/(D*B) is small.
func (p Params) StripedPenalty() float64 {
	ind := p.SortIOs(Independent)
	if ind == 0 {
		return 1
	}
	return float64(p.SortIOs(Striped)) / float64(ind)
}
