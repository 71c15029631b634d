package service

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"hetsort"
	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

// TestConcurrentJobsPriceAsDedicated: two jobs run concurrently on the
// shared machine must produce byte-identical outputs, equal job roots
// and exactly the virtual times of the same jobs run serially, because
// every job is priced as a dedicated machine.  (Per-node attribution is
// checked by Machine.Run, so a Done state certifies CheckAttribution.)
func TestConcurrentJobsPriceAsDedicated(t *testing.T) {
	specs := []JobSpec{testSpec(4000, 21), testSpec(6000, 22)}

	// Serial reference: MaxJobs=1 forces one tenant at a time.
	serialStore := diskio.NewMemFS()
	serialCfg := testConfig()
	serialCfg.MaxJobs = 1
	serial, err := New(serialCfg, serialStore)
	if err != nil {
		t.Fatal(err)
	}
	serialIDs := make([]string, len(specs))
	for i, sp := range specs {
		id, err := serial.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		serialIDs[i] = id
		serial.Wait(id) // strictly one at a time
	}
	serial.Stop()

	// Concurrent: both jobs run at once.
	concStore := diskio.NewMemFS()
	conc, err := New(testConfig(), concStore) // MaxJobs=2
	if err != nil {
		t.Fatal(err)
	}
	concIDs := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		id, err := conc.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		concIDs[i] = id
		wg.Add(1)
		go func() { defer wg.Done(); conc.Wait(id) }()
	}
	wg.Wait()
	conc.Stop()

	p := len(testConfig().Machine.Perf)
	for i := range specs {
		sst, err := serial.Status(serialIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		cst, err := conc.Status(concIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if sst.State != StateDone {
			t.Fatalf("serial job %d: %s (%s)", i, sst.State, sst.Error)
		}
		if cst.State != StateDone {
			t.Fatalf("concurrent job %d: %s (%s)", i, cst.State, cst.Error)
		}
		// Outputs byte-identical at any multiprogramming level.
		so := readOutputs(t, serialStore, serialIDs[i], p)
		co := readOutputs(t, concStore, concIDs[i], p)
		if !bytes.Equal(so, co) {
			t.Fatalf("job %d: concurrent output differs from serial", i)
		}
		// Identical artifacts hash to identical roots.
		if sst.Root != cst.Root {
			t.Fatalf("job %d: roots differ (serial %s, concurrent %s)", i, sst.Root, cst.Root)
		}
		// Both verify end to end from their backends.
		if _, err := VerifyJob(serialStore, serialIDs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyJob(concStore, concIDs[i]); err != nil {
			t.Fatal(err)
		}
		if cst.Time != sst.Time || !slices.Equal(cst.NodeClocks, sst.NodeClocks) {
			t.Fatalf("job %d: concurrent clocks %.9f %v, serial %.9f %v", i, cst.Time, cst.NodeClocks, sst.Time, sst.NodeClocks)
		}
	}
}

// TestJobSortsLikeTheFacade: a generated job's node outputs are
// byte-identical to hetsort.Sort's on the same keys, perf, B, M, T and
// message size with checkpointing on, its partitions are the facade's
// PartitionSizes, and it is priced exactly as the facade's sort: the
// same makespan and the same clock on every node.
func TestJobSortsLikeTheFacade(t *testing.T) {
	store := diskio.NewMemFS()
	cfg := testConfig()
	s, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	spec := testSpec(6000, 22)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	p := len(cfg.Machine.Perf)
	keys := record.Uniform.Generate(int(spec.Gen.Count), spec.Gen.Seed, p)
	want, rep, err := hetsort.Sort(keys, hetsort.Config{Perf: cfg.Machine.Perf, BlockKeys: cfg.Machine.BlockKeys,
		MemoryKeys: spec.MemoryKeys, Tapes: spec.Tapes, MessageKeys: spec.MessageKeys,
		Checkpoint: hetsort.CheckpointConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readOutputs(t, store, id, p), record.EncodeKeys(nil, want)) {
		t.Fatal("job output differs from hetsort.Sort's")
	}
	if !slices.Equal(st.Partitions, rep.PartitionSizes) {
		t.Fatalf("job partitions %v, facade %v", st.Partitions, rep.PartitionSizes)
	}
	if st.Time != rep.Time || !slices.Equal(st.NodeClocks, rep.NodeClocks) {
		t.Fatalf("job clocks %.9f %v, facade %.9f %v", st.Time, st.NodeClocks, rep.Time, rep.NodeClocks)
	}
}
