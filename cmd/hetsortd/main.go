// Command hetsortd runs the multi-tenant sort service: a long-running
// daemon that accepts sort jobs over HTTP, admits them against the
// simulated machine's memory and disk budgets, runs up to -max-jobs of
// them concurrently on one virtual machine (each priced as if it had
// the machine to itself), and anchors every completed job with a
// Merkle root over its artifacts.
//
// Serve:
//
//	hetsortd -addr :8080 -store dir:/var/lib/hetsortd -perf 1,1,4,4
//
// Verify a completed job offline (no daemon needed):
//
//	hetsortd verify -store dir:/var/lib/hetsortd job-0000
//
// Lint a scraped /metrics page against the Prometheus text exposition
// format (promtool-style; reads stdin when no file is given):
//
//	curl -s localhost:8080/metrics | hetsortd promlint
//
// The store holds every job's spec, status, trace and node disks, and
// the uploaded inputs: a directory (dir:PATH, a diskio.DirFS) or memory
// (mem, a diskio.MemFS, useful only for demos: state dies with the
// process).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hetsort"
	"hetsort/internal/diskio"
	"hetsort/internal/metrics"
	"hetsort/internal/service"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		verifyMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "promlint" {
		promlintMain(os.Args[2:])
		return
	}
	serveMain(os.Args[1:])
}

// promlintMain validates a text-exposition page (file args or stdin)
// so CI can assert /metrics parses without carrying promtool.
func promlintMain(args []string) {
	lint := func(name string, data []byte) {
		if err := metrics.LintExposition(data); err != nil {
			fatal(fmt.Errorf("hetsortd: promlint %s: %w", name, err))
		}
		fmt.Printf("%s: valid Prometheus text exposition\n", name)
	}
	if len(args) == 0 {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		lint("stdin", data)
		return
	}
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		lint(path, data)
	}
}

func openStore(spec string) (diskio.FS, error) {
	switch {
	case spec == "mem":
		return diskio.NewMemFS(), nil
	case len(spec) > 4 && spec[:4] == "dir:":
		return diskio.NewDirFS(spec[4:])
	default:
		return nil, fmt.Errorf("hetsortd: -store wants dir:PATH or mem, got %q", spec)
	}
}

func serveMain(args []string) {
	fs := flag.NewFlagSet("hetsortd", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "HTTP listen address")
		store      = fs.String("store", "mem", "storage backend: dir:PATH or mem")
		perfStr    = fs.String("perf", "1,1,1,1", "machine perf vector (relative node speeds)")
		network    = fs.String("net", "fast-ethernet", "network model: fast-ethernet, myrinet, ideal")
		block      = fs.Int("block", 2048, "disk block size B in keys")
		maxJobs    = fs.Int("max-jobs", 2, "concurrently running jobs")
		maxQueue   = fs.Int("max-queue", 8, "queued jobs behind the running ones")
		memBudget  = fs.Int64("mem-budget", 256<<20, "machine memory budget in bytes for admission")
		diskBudget = fs.Int64("disk-budget", 4<<30, "machine disk budget in bytes for admission")
	)
	fs.Parse(args)

	perfV, err := hetsort.ParsePerf(*perfStr)
	if err != nil {
		fatal(err)
	}
	backend, err := openStore(*store)
	if err != nil {
		fatal(err)
	}
	svc, err := service.New(service.Config{
		Machine: service.MachineConfig{
			Perf:        perfV,
			Network:     *network,
			BlockKeys:   *block,
			MemoryBytes: *memBudget,
			DiskBytes:   *diskBudget,
		},
		MaxJobs:  *maxJobs,
		MaxQueue: *maxQueue,
	}, backend)
	if err != nil {
		fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "hetsortd: shutting down (in-flight jobs stay resumable)")
		srv.Close()
	}()
	fmt.Printf("hetsortd: serving on %s (store %s, machine perf %v, %d slots + %d queue)\n",
		*addr, *store, perfV, *maxJobs, *maxQueue)
	err = srv.ListenAndServe()
	// Interrupt the running jobs; their durable status stays "running"
	// so the next daemon resumes them from their checkpoints.
	svc.Stop()
	if err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

func verifyMain(args []string) {
	fs := flag.NewFlagSet("hetsortd verify", flag.ExitOnError)
	store := fs.String("store", "", "storage backend: dir:PATH")
	fs.Parse(args)
	// Only a directory outlives the daemon that wrote it.
	if !strings.HasPrefix(*store, "dir:") || fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hetsortd verify -store dir:PATH JOB-ID")
		os.Exit(2)
	}
	backend, err := openStore(*store)
	if err != nil {
		fatal(err)
	}
	id := fs.Arg(0)
	root, err := service.VerifyJob(backend, id)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: output sorted, multiset matches the input, merkle root verified: %s\n", id, root)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hetsortd:", err)
	os.Exit(1)
}
