package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"hetsort"
)

func TestResultJSONFailure(t *testing.T) {
	out := resultJSON(nil, errors.New("input file truncated"), "")
	var r cliResult
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if r.OK || r.Error != "input file truncated" || r.Crash {
		t.Fatalf("failure object: %+v", r)
	}
}

func TestResultJSONCrashCarriesResumeHint(t *testing.T) {
	// A genuine injected crash from a checkpointed run must be marked
	// recoverable, with the exact resume command.
	_, _, err := hetsort.Sort(make([]hetsort.Key, 2000), hetsort.Config{
		MemoryKeys: 1024, Tapes: 4, BlockKeys: 64, MessageKeys: 128,
		Checkpoint: hetsort.CheckpointConfig{Enabled: true, CrashNode: 1, CrashPhase: 3},
	})
	if err == nil || !hetsort.IsCrash(err) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	var r cliResult
	if uerr := json.Unmarshal(resultJSON(nil, err, "/ckpt"), &r); uerr != nil {
		t.Fatal(uerr)
	}
	if r.OK || !r.Crash || r.ResumeHint != "hetsort -resume -checkpoint-dir /ckpt" {
		t.Fatalf("crash object: %+v", r)
	}
}

func TestResultJSONSuccess(t *testing.T) {
	keys := make([]hetsort.Key, 2000)
	for i := range keys {
		keys[i] = hetsort.Key(len(keys) - i)
	}
	_, rep, err := hetsort.Sort(keys, hetsort.Config{
		MemoryKeys: 1024, Tapes: 4, BlockKeys: 64, MessageKeys: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	var r cliResult
	if uerr := json.Unmarshal(resultJSON(rep, nil, ""), &r); uerr != nil {
		t.Fatal(uerr)
	}
	if !r.OK || r.Error != "" || r.Time != rep.Time || len(r.Partitions) != 4 {
		t.Fatalf("success object: %+v", r)
	}
}

// TestErrLineOnePrefix: an error the library made, which carries the
// "hetsort:" prefix already, and one the command makes itself both
// print behind exactly one prefix.
func TestErrLineOnePrefix(t *testing.T) {
	_, _, facadeErr := hetsort.Sort(nil, hetsort.Config{Algorithm: hetsort.Algorithm(5)})
	if facadeErr == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{facadeErr, "hetsort: unknown algorithm"},
		{errors.New("-gen requires -input"), "hetsort: -gen requires -input"},
	} {
		if got := errLine(tc.err); !strings.HasPrefix(got, tc.want) {
			t.Errorf("errLine(%q) = %q, want it to start %q", tc.err, got, tc.want)
		}
	}
}

// TestUnknownFlagNameExitsTwo: an enum flag refuses a name its table
// does not hold while the flags are parsed, before anything is read,
// exiting 2 with the accepted names.  The test runs main in a child
// process of its own binary.
func TestUnknownFlagNameExitsTwo(t *testing.T) {
	if os.Getenv("HETSORT_TEST_MAIN") == "1" {
		os.Args = []string{"hetsort", "-pivot", "bogus", "-input", "missing", "-output", "out"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownFlagNameExitsTwo$")
	cmd.Env = append(os.Environ(), "HETSORT_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-pivot bogus: %v, want exit status 2\n%s", err, out)
	}
	if want := "regular-sampling, random-pivots or histogram"; !strings.Contains(string(out), want) {
		t.Errorf("-pivot bogus printed\n%s\nwithout the accepted names %q", out, want)
	}
}
