package hetsort

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeKeyFile(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	var buf [4]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[:], 2654435761*uint32(i+13))
		w.Write(buf[:])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSortFileCrashAndResume is the end-to-end fault-tolerance check:
// a checkpointed on-disk sort is killed mid-run, a fresh Resume — with
// nothing but the configuration and the work directory, as after a real
// process restart — finishes it, and the final file is byte-identical
// to an uninterrupted run's.
func TestSortFileCrashAndResume(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.u32")
	const n = 40000
	writeKeyFile(t, inPath, n)

	cfg := Config{
		Perf: []int{1, 1, 4, 4}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
	}

	// Reference: uninterrupted checkpointed run.
	refCfg := cfg
	refCfg.WorkDir = filepath.Join(dir, "ref")
	refCfg.Checkpoint.Enabled = true
	refOut := filepath.Join(dir, "ref.u32")
	if _, err := SortFile(inPath, refOut, refCfg); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}

	// Crashed run: node 2 dies at the end of the redistribution phase.
	runCfg := cfg
	runCfg.WorkDir = filepath.Join(dir, "work")
	runCfg.Checkpoint.Enabled = true
	runCfg.Checkpoint.CrashNode = 2
	runCfg.Checkpoint.CrashPhase = 4
	// An earlier output at the path survives the crash untouched, and
	// no partial output is left beside it.
	outPath := filepath.Join(dir, "out.u32")
	earlier := []byte("an earlier output")
	if err := os.WriteFile(outPath, earlier, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = SortFile(inPath, outPath, runCfg)
	if !IsCrash(err) {
		t.Fatalf("want an injected crash, got %v", err)
	}
	if got, err := os.ReadFile(outPath); err != nil || !bytes.Equal(got, earlier) {
		t.Fatalf("a crashed SortFile changed the file at its output path: %q, %v", got, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".out.u32.*")); len(left) > 0 {
		t.Fatalf("a crashed SortFile left %v behind", left)
	}

	// Resume in a fresh configuration value (no crash scheduled), as a
	// restarted process would.
	resCfg := cfg
	resCfg.WorkDir = filepath.Join(dir, "work")
	resCfg.Checkpoint.Enabled = true
	rep, err := Resume(outPath, resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time <= 0 {
		t.Fatal("no report time")
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from the uninterrupted run")
	}
	if st, err := os.Stat(outPath); err != nil {
		t.Fatal(err)
	} else if st.Mode().Perm() != 0o600 {
		t.Fatalf("the resumed output's mode is %v, not the replaced file's -rw-------", st.Mode())
	}
}

// TestSortFileRefusesANonRegularOutput: an output path that names
// something other than a regular file is refused before the sort, and
// left where it is.
func TestSortFileRefusesANonRegularOutput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.u32")
	writeKeyFile(t, inPath, 4000)
	outDir := filepath.Join(dir, "out")
	if err := os.Mkdir(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := SortFile(inPath, outDir, Config{}); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Fatalf("SortFile onto a directory: %v", err)
	}
	if _, err := Resume(outDir, Config{WorkDir: filepath.Join(dir, "work")}); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Fatalf("Resume onto a directory: %v", err)
	}
	if st, err := os.Stat(outDir); err != nil || !st.IsDir() {
		t.Fatalf("the directory at the output path is gone: %v", err)
	}
}

func TestResumeRequiresWorkDir(t *testing.T) {
	if _, err := Resume(filepath.Join(t.TempDir(), "out"), Config{Checkpoint: CheckpointConfig{Enabled: true}}); err == nil {
		t.Fatal("resume without a work directory accepted")
	}
}

func TestSortFileCrashPhaseValidation(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.u32")
	writeKeyFile(t, inPath, 1024)
	cfg := Config{
		Perf: []int{1, 1}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
		Checkpoint: CheckpointConfig{Enabled: true, CrashPhase: 6},
	}
	if _, err := SortFile(inPath, filepath.Join(dir, "out"), cfg); err == nil {
		t.Fatal("CrashPhase 6 accepted")
	}
}

func TestCheckpointRejectedForDeWitt(t *testing.T) {
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = Key(len(keys) - i)
	}
	_, _, err := Sort(keys, Config{
		Algorithm: AlgorithmDeWitt, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
		Checkpoint: CheckpointConfig{Enabled: true},
	})
	if err == nil {
		t.Fatal("DeWitt + checkpointing accepted")
	}
}

// TestSortCheckpointInMemory: checkpointing also works on the in-memory
// cluster used by Sort (manifests just do not survive the process).
func TestSortCheckpointInMemory(t *testing.T) {
	keys := make([]Key, 20000)
	for i := range keys {
		keys[i] = 2654435761 * Key(i+3)
	}
	out, rep, err := Sort(keys, Config{
		Perf: []int{1, 1, 4, 4}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
		Checkpoint: CheckpointConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(keys) || rep.Time <= 0 {
		t.Fatalf("bad result: %d keys, %.3f vsec", len(out), rep.Time)
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

// TestResumeDoesNotRunTheCrashAgain: Resume given the crashed run's own
// Config, Checkpoint.CrashPhase still set, finishes the sort instead of
// dying at the same point again.
func TestResumeDoesNotRunTheCrashAgain(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.u32")
	writeKeyFile(t, inPath, 8000)
	cfg := Config{
		Perf: []int{1, 1, 4, 4}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
		WorkDir:    filepath.Join(dir, "work"),
		Checkpoint: CheckpointConfig{Enabled: true, CrashPhase: 3, CrashNode: 1},
	}
	outPath := filepath.Join(dir, "out.u32")
	if _, err := SortFile(inPath, outPath, cfg); !IsCrash(err) {
		t.Fatalf("want an injected crash, got %v", err)
	}
	if _, err := Resume(outPath, cfg); err != nil {
		t.Fatalf("Resume with CrashPhase set: %v", err)
	}
}
