package check

import (
	"fmt"
	"strings"

	"hetsort"
)

// Shrink minimises a failing case: input keys first (ddmin over
// shrinking chunk sizes), then the configuration axes toward their zero
// values (axis by axis, keeping a change only if the named invariant
// still fails).  maxRuns bounds the re-execution budget (<= 0 means
// 200).  The returned case still fails the invariant; the original is
// returned unchanged if nothing smaller does.
func Shrink(c *Case, invariant string, opts RunOptions, maxRuns int) *Case {
	if maxRuns <= 0 {
		maxRuns = 200
	}
	runsLeft := maxRuns
	fails := func(cand *Case) bool {
		if runsLeft <= 0 {
			return false
		}
		runsLeft--
		return len(Check(cand, opts, invariant)) > 0
	}

	cur := &Case{Name: c.Name + "/shrunk", Seed: c.Seed,
		Keys: append([]hetsort.Key(nil), c.Keys...), Config: c.Config}

	// Phase 1: ddmin over the keys.  Chunk size halves until single
	// keys; any chunk whose removal preserves the failure is dropped.
	for chunk := len(cur.Keys) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur.Keys); {
			cand := &Case{Name: cur.Name, Seed: cur.Seed, Config: cur.Config}
			cand.Keys = append(cand.Keys, cur.Keys[:start]...)
			cand.Keys = append(cand.Keys, cur.Keys[start+chunk:]...)
			if fails(cand) {
				cur.Keys = cand.Keys
				// Same start now addresses the next chunk.
			} else {
				start += chunk
			}
			if runsLeft <= 0 {
				return cur
			}
		}
	}

	// Phase 2: config axes toward the zero value, in a fixed order
	// from least to most behaviour-changing.  Each accepted transform
	// restarts the list (an earlier axis may shrink further once a
	// later one was zeroed).
	transforms := []func(hetsort.Config) (hetsort.Config, bool){
		axis("Trace", func(g *hetsort.Config) *bool { return &g.Trace }),
		axis("Overlap", func(g *hetsort.Config) *bool { return &g.Overlap }),
		func(g hetsort.Config) (hetsort.Config, bool) {
			if g.Checkpoint == (hetsort.CheckpointConfig{}) {
				return g, false
			}
			g.Checkpoint = hetsort.CheckpointConfig{}
			return g, true
		},
		stringAxis(func(g *hetsort.Config) *string { return &g.Network }),
		stringAxis(func(g *hetsort.Config) *string { return &g.RunFormation }),
		// DiskAccess before Disks: an access-mode-dependent failure
		// keeps both, a mode-independent one shrinks to striped first.
		stringAxis(func(g *hetsort.Config) *string { return &g.DiskAccess }),
		intAxis(func(g *hetsort.Config) *int { return &g.Disks }),
		// Radix before Topology: a radix-dependent failure keeps both,
		// a radix-independent one shrinks to the default radix first.
		intAxis(func(g *hetsort.Config) *int { return &g.Radix }),
		stringAxis(func(g *hetsort.Config) *string { return &g.Topology }),
		stringAxis(func(g *hetsort.Config) *string { return &g.PivotStrategy }),
		stringAxis(func(g *hetsort.Config) *string { return &g.Algorithm }),
		func(g hetsort.Config) (hetsort.Config, bool) {
			if g.Loads == nil {
				return g, false
			}
			g.Loads = nil
			return g, true
		},
		func(g hetsort.Config) (hetsort.Config, bool) {
			if g.HistTolerance == 0 {
				return g, false
			}
			g.HistTolerance = 0
			return g, true
		},
		func(g hetsort.Config) (hetsort.Config, bool) {
			if g.Seed == 0 {
				return g, false
			}
			g.Seed = 0
			return g, true
		},
		func(g hetsort.Config) (hetsort.Config, bool) {
			// Flatten the perf vector to homogeneous of the same size.
			if len(g.Perf) == 0 {
				return g, false
			}
			g.Nodes = len(g.Perf)
			g.Perf = nil
			return g, true
		},
		func(g hetsort.Config) (hetsort.Config, bool) {
			// Fewer nodes (toward 2; 4 is the zero-value default).
			if len(g.Perf) > 0 || g.Nodes == 0 || g.Nodes <= 2 {
				return g, false
			}
			g.Nodes = 2
			return g, true
		},
		intAxis(func(g *hetsort.Config) *int { return &g.MessageKeys }),
		intAxis(func(g *hetsort.Config) *int { return &g.Tapes }),
		intAxis(func(g *hetsort.Config) *int { return &g.BlockKeys }),
		intAxis(func(g *hetsort.Config) *int { return &g.MemoryKeys }),
	}
	for changed := true; changed && runsLeft > 0; {
		changed = false
		for _, tf := range transforms {
			cfg, ok := tf(cur.Config)
			if !ok {
				continue
			}
			cand := &Case{Name: cur.Name, Seed: cur.Seed, Keys: cur.Keys, Config: cfg}
			if fails(cand) {
				cur.Config = cfg
				changed = true
			}
			if runsLeft <= 0 {
				break
			}
		}
	}
	return cur
}

func axis(_ string, field func(*hetsort.Config) *bool) func(hetsort.Config) (hetsort.Config, bool) {
	return func(g hetsort.Config) (hetsort.Config, bool) {
		if !*field(&g) {
			return g, false
		}
		*field(&g) = false
		return g, true
	}
}

func stringAxis(field func(*hetsort.Config) *string) func(hetsort.Config) (hetsort.Config, bool) {
	return func(g hetsort.Config) (hetsort.Config, bool) {
		if *field(&g) == "" {
			return g, false
		}
		*field(&g) = ""
		return g, true
	}
}

func intAxis(field func(*hetsort.Config) *int) func(hetsort.Config) (hetsort.Config, bool) {
	return func(g hetsort.Config) (hetsort.Config, bool) {
		if *field(&g) == 0 {
			return g, false
		}
		*field(&g) = 0
		return g, true
	}
}

// Repro renders a ready-to-paste Go test reproducing the failure.
func Repro(c *Case, invariant string, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Repro for invariant %q (case %s, seed %d):\n", invariant, c.Name, c.Seed)
	fmt.Fprintf(&b, "//   %v\n", err)
	fmt.Fprintf(&b, "func TestHetcheckRepro(t *testing.T) {\n")
	fmt.Fprintf(&b, "\tkeys := %s\n", keysLiteral(c.Keys))
	fmt.Fprintf(&b, "\tcfg := %s\n", configLiteral(c.Config))
	fmt.Fprintf(&b, "\tfor _, f := range check.Recheck(keys, cfg, %q) {\n", invariant)
	fmt.Fprintf(&b, "\t\tt.Error(f)\n")
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "}\n")
	return b.String()
}

func keysLiteral(keys []hetsort.Key) string {
	var b strings.Builder
	b.WriteString("[]uint32{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		if i > 0 && i%16 == 0 {
			b.WriteString("\n\t\t")
		}
		fmt.Fprintf(&b, "%d", k)
	}
	b.WriteString("}")
	return b.String()
}

// configLiteral renders only the non-zero fields of a Config.
func configLiteral(cfg hetsort.Config) string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if len(cfg.Perf) > 0 {
		add("Perf: %#v", cfg.Perf)
	}
	if cfg.Nodes != 0 {
		add("Nodes: %d", cfg.Nodes)
	}
	if cfg.BlockKeys != 0 {
		add("BlockKeys: %d", cfg.BlockKeys)
	}
	if cfg.MemoryKeys != 0 {
		add("MemoryKeys: %d", cfg.MemoryKeys)
	}
	if cfg.Tapes != 0 {
		add("Tapes: %d", cfg.Tapes)
	}
	if cfg.MessageKeys != 0 {
		add("MessageKeys: %d", cfg.MessageKeys)
	}
	if cfg.Network != "" {
		add("Network: %q", cfg.Network)
	}
	if cfg.Disks != 0 {
		add("Disks: %d", cfg.Disks)
	}
	if cfg.DiskAccess != "" {
		add("DiskAccess: %q", cfg.DiskAccess)
	}
	if cfg.RunFormation != "" {
		add("RunFormation: %q", cfg.RunFormation)
	}
	if cfg.Algorithm != "" {
		add("Algorithm: %q", cfg.Algorithm)
	}
	if cfg.PivotStrategy != "" {
		add("PivotStrategy: %q", cfg.PivotStrategy)
	}
	if cfg.Topology != "" {
		add("Topology: %q", cfg.Topology)
	}
	if cfg.Radix != 0 {
		add("Radix: %d", cfg.Radix)
	}
	if cfg.HistTolerance != 0 {
		add("HistTolerance: %g", cfg.HistTolerance)
	}
	if cfg.WorkDir != "" {
		add("WorkDir: %q", cfg.WorkDir)
	}
	if len(cfg.Loads) > 0 {
		add("Loads: %#v", cfg.Loads)
	}
	if cfg.Seed != 0 {
		add("Seed: %d", cfg.Seed)
	}
	if cfg.Trace {
		add("Trace: true")
	}
	if cfg.Overlap {
		add("Overlap: true")
	}
	if cfg.Checkpoint != (hetsort.CheckpointConfig{}) {
		add("Checkpoint: hetsort.CheckpointConfig{Enabled: %v, CrashPhase: %d, CrashNode: %d}",
			cfg.Checkpoint.Enabled, cfg.Checkpoint.CrashPhase, cfg.Checkpoint.CrashNode)
	}
	return "hetsort.Config{" + strings.Join(parts, ", ") + "}"
}
