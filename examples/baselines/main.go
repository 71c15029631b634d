// Baselines compares the paper's Algorithm 1 against the prior-work
// baseline (DeWitt et al. probabilistic splitting) and against the
// pivot-strategy variants, all on the same loaded heterogeneous
// cluster.  It prints the trade-off the paper's sections 2-3 discuss:
// the baseline saves the up-front external sort (fewer block I/Os) but
// regular sampling balances the load deterministically.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hetsort"
)

func main() {
	perf := []int{1, 1, 4, 4}
	n, err := hetsort.ValidSize(perf, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	keys := make([]hetsort.Key, n)
	for i := range keys {
		keys[i] = r.Uint32()
	}

	base := hetsort.Config{
		Perf:       perf,
		MemoryKeys: 1 << 14,
		BlockKeys:  512,
		Tapes:      8,
	}

	type variant struct {
		label string
		mod   func(hetsort.Config) hetsort.Config
	}
	variants := []variant{
		{"Algorithm 1 (regular sampling)", func(c hetsort.Config) hetsort.Config { return c }},
		{"Algorithm 1 + random pivots", func(c hetsort.Config) hetsort.Config {
			c.PivotStrategy = hetsort.PivotRandom
			return c
		}},
		{"DeWitt et al. baseline", func(c hetsort.Config) hetsort.Config {
			c.Algorithm = hetsort.AlgorithmDeWitt
			return c
		}},
	}

	fmt.Printf("sorting %d keys on a loaded {1,1,4,4} cluster:\n\n", n)
	fmt.Printf("%-32s %10s %10s %12s\n", "variant", "vtime(s)", "S(max)", "block I/Os")
	for _, v := range variants {
		_, rep, err := hetsort.Sort(keys, v.mod(base))
		if err != nil {
			log.Fatalf("%s: %v", v.label, err)
		}
		fmt.Printf("%-32s %10.3f %10.4f %12d\n",
			v.label, rep.Time, rep.SublistExpansion, rep.ReadBlocks+rep.WriteBlocks)
	}
	fmt.Println("\nAlgorithm 1 pays one extra pass (the up-front external sort) but its")
	fmt.Println("regular sampling bounds every node's load deterministically; the")
	fmt.Println("baseline's balance depends on its random sample.")
}
