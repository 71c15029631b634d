package record

import (
	"fmt"
	"math"
	"math/rand"
)

// Distribution identifies one of the eight benchmark inputs ("benchmark
// 0" in the paper's tables is the uniform-random one; the suite has
// eight).
type Distribution int

const (
	// Uniform draws keys uniformly at random over the full 32-bit
	// range.  This is "benchmark 0", the input of Tables 2 and 3.
	Uniform Distribution = iota
	// Gaussian sums four uniform draws, concentrating mass around the
	// middle of the key range.
	Gaussian
	// Zipf draws from a heavily skewed distribution producing many
	// duplicates of small keys (tests the duplicate-handling claims of
	// paper section 3.1).
	Zipf
	// Sorted is already non-decreasing (best case for sampling, worst
	// case for naive pivot choice).
	Sorted
	// Reverse is strictly decreasing.
	Reverse
	// NearlySorted is sorted with 1% of positions randomly perturbed.
	NearlySorted
	// Bucket concentrates each p-th of the input into its own value
	// range (the "bucket sorted" input of Blelloch et al.).
	Bucket
	// Staggered is the staggered distribution of Li & Sevcik: block i
	// holds values that interleave adversarially for naive splitters.
	Staggered
	// HeavyDup draws from only a handful of distinct values, so almost
	// every key is a duplicate and rank intervals around the pivots
	// cannot shrink (the histogram refiner's plateau case).
	HeavyDup
	// ZipfS2 is Zipf with exponent s=2: far heavier skew than Zipf,
	// a majority of the input collapses onto the smallest key.
	ZipfS2
	// Staircase concentrates the input on p narrow plateaus separated
	// by wide empty gaps, so interpolation between histogram bounds
	// repeatedly lands in empty space.
	Staircase
	// SamplerKiller hides half the mass in narrow spikes placed just
	// after the positions a regular sampler probes, so regular samples
	// systematically miss it while rank histograms cannot.
	SamplerKiller

	// NumDistributions is the size of the benchmark suite: the paper's
	// eight plus the four adversarial pivot-stress inputs.
	NumDistributions = 12
	// NumPaperDistributions is the size of the paper's original suite
	// (Uniform through Staggered).
	NumPaperDistributions = 8
)

// Distributions lists the whole suite in benchmark order.
func Distributions() []Distribution {
	ds := make([]Distribution, NumDistributions)
	for i := range ds {
		ds[i] = Distribution(i)
	}
	return ds
}

// PaperDistributions lists the paper's original eight-benchmark suite,
// excluding the adversarial pivot-stress inputs; the section-3
// invariance claim (experiment E10) is stated over these.
func PaperDistributions() []Distribution {
	return Distributions()[:NumPaperDistributions]
}

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Gaussian:
		return "gaussian"
	case Zipf:
		return "zipf"
	case Sorted:
		return "sorted"
	case Reverse:
		return "reverse"
	case NearlySorted:
		return "nearly-sorted"
	case Bucket:
		return "bucket"
	case Staggered:
		return "staggered"
	case HeavyDup:
		return "heavy-dup"
	case ZipfS2:
		return "zipf-s2"
	case Staircase:
		return "staircase"
	case SamplerKiller:
		return "sampler-killer"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// ParseDistribution maps a name (as produced by String) back to a
// Distribution.
func ParseDistribution(name string) (Distribution, error) {
	for _, d := range Distributions() {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("record: unknown distribution %q", name)
}

// Generate produces n keys of distribution d using the given seed.  The
// parts parameter is the number of cluster nodes the input will be
// partitioned over; it shapes Bucket and Staggered (which are defined
// relative to the processor count) and is ignored by the others.  parts
// must be >= 1.
func (d Distribution) Generate(n int, seed int64, parts int) []Key {
	if n < 0 {
		panic("record: negative input size")
	}
	if parts < 1 {
		parts = 1
	}
	r := rng(seed)
	out := make([]Key, n)
	switch d {
	case Uniform:
		for i := range out {
			out[i] = Key(r.Uint32())
		}
	case Gaussian:
		for i := range out {
			s := uint64(r.Uint32()) + uint64(r.Uint32()) + uint64(r.Uint32()) + uint64(r.Uint32())
			out[i] = Key(s / 4)
		}
	case Zipf:
		// Discrete zipf over 2^16 distinct values, s=1.2, scaled to
		// spread over the key range so ordering is still meaningful.
		z := rand.NewZipf(r, 1.2, 1, 1<<16-1)
		for i := range out {
			out[i] = Key(z.Uint64() << 12)
		}
	case Sorted:
		step := math.MaxUint32 / float64(max(n, 1))
		for i := range out {
			out[i] = Key(float64(i) * step)
		}
	case Reverse:
		step := math.MaxUint32 / float64(max(n, 1))
		for i := range out {
			out[i] = Key(float64(n-1-i) * step)
		}
	case NearlySorted:
		step := math.MaxUint32 / float64(max(n, 1))
		for i := range out {
			out[i] = Key(float64(i) * step)
		}
		swaps := n / 100
		for s := 0; s < swaps; s++ {
			i, j := r.Intn(n), r.Intn(n)
			out[i], out[j] = out[j], out[i]
		}
	case Bucket:
		// parts ranges; element i belongs to range i*parts/n.
		width := uint64(math.MaxUint32) / uint64(parts)
		for i := range out {
			b := uint64(i * parts / max(n, 1))
			out[i] = Key(b*width + uint64(r.Uint32())%max(width, 1))
		}
	case Staggered:
		// Li & Sevcik staggered: block i gets values from range
		// (2i+1) mod parts — adjacent blocks hold distant ranges.
		width := uint64(math.MaxUint32) / uint64(parts)
		blockLen := max(n/parts, 1)
		for i := range out {
			blk := i / blockLen
			if blk >= parts {
				blk = parts - 1
			}
			rangeIdx := uint64((2*blk + 1) % parts)
			out[i] = Key(rangeIdx*width + uint64(r.Uint32())%max(width, 1))
		}
	case HeavyDup:
		// Five distinct values spread over the range: ~n/5 copies
		// each, so no pivot interval between two of them can shrink.
		const distinct = 5
		step := uint64(math.MaxUint32) / distinct
		for i := range out {
			out[i] = Key(uint64(r.Intn(distinct)) * step)
		}
	case ZipfS2:
		// Exponent 2 instead of 1.2: the mode alone holds a majority
		// of the keys.
		z := rand.NewZipf(r, 2.0, 1, 1<<16-1)
		for i := range out {
			out[i] = Key(z.Uint64() << 12)
		}
	case Staircase:
		// parts narrow plateaus separated by wide empty gaps; an
		// interpolating splitter search keeps landing in the gaps.
		pp := max(parts, 2)
		width := uint64(math.MaxUint32) / uint64(pp)
		band := max(width/4096, 1)
		for i := range out {
			b := uint64(r.Intn(pp))
			out[i] = Key(b*width + width/2 + uint64(r.Uint32())%band)
		}
	case SamplerKiller:
		// Half the keys repeat parts "magnet" values that regular
		// samples of the sorted portions cluster on; the other half
		// hides in a hair-thin spike just above each magnet, so
		// position-based samplers undercount it while value-domain
		// rank histograms see it exactly.
		pp := max(parts, 2)
		width := uint64(math.MaxUint32) / uint64(pp)
		spike := max(width/1024, 1)
		for i := range out {
			b := uint64(r.Intn(pp))
			if i%2 == 0 {
				out[i] = Key(b * width)
			} else {
				out[i] = Key(b*width + 1 + uint64(r.Uint32())%spike)
			}
		}
	default:
		panic(fmt.Sprintf("record: unknown distribution %d", int(d)))
	}
	return out
}
