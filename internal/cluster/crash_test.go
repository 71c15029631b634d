package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"hetsort/internal/record"
)

func TestScheduledCrashAtClock(t *testing.T) {
	c := mustNew(t, 1, 1)
	if err := c.ScheduleCrash(0, 5, ""); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			for i := 0; i < 100; i++ {
				n.AdvanceClock(1)
			}
			t.Error("node 0 survived past its scheduled crash")
		}
		return nil
	})
	if !IsCrash(err) {
		t.Fatalf("want crash error, got %v", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatal("CrashError not extractable")
	}
	if ce.Node != 0 || ce.Clock < 5 {
		t.Fatalf("crash at node %d clock %v", ce.Node, ce.Clock)
	}
}

func TestScheduledCrashAtPoint(t *testing.T) {
	c := mustNew(t, 1, 1)
	if err := c.ScheduleCrash(1, -1, "phase-3"); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(n *Node) error {
		n.CrashPoint("phase-2") // wrong point: must not fire
		n.CrashPoint("phase-3")
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want crash error, got %v", err)
	}
	if ce.Node != 1 || ce.Point != "phase-3" {
		t.Fatalf("crash = %+v", ce)
	}
}

func TestCrashScheduleIsOneShot(t *testing.T) {
	c := mustNew(t, 1)
	if err := c.ScheduleCrash(0, -1, "p"); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(func(n *Node) error { n.CrashPoint("p"); return nil }); !IsCrash(err) {
		t.Fatalf("first run should crash, got %v", err)
	}
	// The schedule cleared when it fired: the same point is now safe.
	if err := c.Run(func(n *Node) error { n.CrashPoint("p"); return nil }); err != nil {
		t.Fatalf("second run should survive, got %v", err)
	}
}

func TestClearCrashes(t *testing.T) {
	c := mustNew(t, 1)
	if err := c.ScheduleCrash(0, 0, "p"); err != nil {
		t.Fatal(err)
	}
	c.ClearCrashes()
	err := c.Run(func(n *Node) error {
		n.AdvanceClock(1)
		n.CrashPoint("p")
		return nil
	})
	if err != nil {
		t.Fatalf("cleared crash still fired: %v", err)
	}
}

func TestScheduleCrashInvalidRank(t *testing.T) {
	c := mustNew(t, 1, 1)
	if err := c.ScheduleCrash(2, 1, ""); err == nil {
		t.Fatal("rank 2 on a 2-node cluster must be rejected")
	}
	if err := c.ScheduleCrash(-1, 1, ""); err == nil {
		t.Fatal("rank -1 must be rejected")
	}
}

// TestCrashAbortsBlockedPeer checks that an injected crash behaves like
// any node failure: peers blocked on the dead node abort instead of
// hanging, and the joined error still identifies the crash.
func TestCrashAbortsBlockedPeer(t *testing.T) {
	c := mustNew(t, 1, 1)
	if err := c.ScheduleCrash(0, -1, "die"); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			n.CrashPoint("die") // never sends
			return nil
		}
		_, rerr := n.Recv(0, 1)
		return rerr
	})
	if !IsCrash(err) {
		t.Fatalf("crash not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("peer abort not surfaced: %v", err)
	}
}

// TestCrashAbortsOnlyItsDependents: a crash aborts the receives that
// wait on the dead node, not one waiting on a live peer.  Node 0 waits on
// node 1, which sends only after node 2 — the node it waits on — has
// died; node 0 must get that message instead of giving up when node 2
// dies.  The pause before the send gives a cluster-wide abort time to
// reach node 0 first.
func TestCrashAbortsOnlyItsDependents(t *testing.T) {
	c := mustNew(t, 1, 1, 1)
	if err := c.ScheduleCrash(2, -1, "die"); err != nil {
		t.Fatal(err)
	}
	var got []record.Key
	err := c.Run(func(n *Node) error {
		switch n.ID() {
		case 0:
			keys, err := n.Recv(1, 7)
			got = keys
			return err
		case 1:
			if _, err := n.Recv(2, 3); err == nil {
				return errors.New("node 1 received from a dead node")
			}
			time.Sleep(10 * time.Millisecond)
			return n.Send(0, 7, []record.Key{42})
		}
		n.CrashPoint("die") // never sends
		return nil
	})
	if !IsCrash(err) {
		t.Fatalf("crash not surfaced: %v", err)
	}
	if strings.Contains(err.Error(), "node 0:") {
		t.Fatalf("node 0 failed although its sender lived: %v", err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("node 0 received %v, want [42]", got)
	}
}

// TestClusterReusableAfterCrash is the recovery-coordinator contract:
// after a run dies from an injected crash with messages still in
// flight, the same Cluster must run again correctly (links drained,
// abort machinery re-armed) — and must be able to crash again, proving
// the abort reset is per-run, not once per cluster.
func TestClusterReusableAfterCrash(t *testing.T) {
	c := mustNew(t, 1, 1)
	if err := c.ScheduleCrash(0, -1, "die"); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			// Leave a stale message in flight, then die.
			if err := n.Send(1, 5, []record.Key{7}); err != nil {
				return err
			}
			n.CrashPoint("die")
		}
		return nil // node 1 returns without receiving
	})
	if !IsCrash(err) {
		t.Fatalf("first run: want crash, got %v", err)
	}

	c.ResetClocks()
	err = c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Send(1, 9, []record.Key{42})
		}
		got, rerr := n.Recv(0, 9)
		if rerr != nil {
			return rerr
		}
		if len(got) != 1 || got[0] != 42 {
			t.Errorf("stale message leaked into recovery run: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}

	// A third run can abort again: the abort channel and once are fresh.
	if err := c.ScheduleCrash(1, -1, "die-again"); err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(n *Node) error {
		if n.ID() == 1 {
			n.CrashPoint("die-again")
			return nil
		}
		_, rerr := n.Recv(1, 3)
		return rerr
	})
	if !IsCrash(err) || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("third run: want crash + abort, got %v", err)
	}
}

// TestInterruptAbortsRun: an external Interrupt unblocks a node stuck
// in a receive, and the cluster is reusable afterwards.
func TestInterruptAbortsRun(t *testing.T) {
	c, err := New(Config{Slowdowns: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- c.Run(func(n *Node) error {
			if n.ID() == 0 {
				close(started)
				_, rerr := n.Recv(1, 1) // node 1 never sends
				return rerr
			}
			<-started
			return nil
		})
	}()
	<-started
	c.Interrupt()
	if err := <-errc; err == nil {
		t.Fatal("interrupted run returned nil")
	}
	// Interrupt with no active run is a no-op...
	var idle Cluster
	idle.Interrupt()
	// ...and the cluster still runs fine after an interrupt.
	c.ClearCrashes()
	if err := c.Run(func(n *Node) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestLiveClockPublishedAtExit: compute charges leave the live clock
// where the last transfer published it, so a node whose last charges are
// compute, or that dies on one, lags until its function returns; from
// then on LiveClock is Clock, bit for bit.
func TestLiveClockPublishedAtExit(t *testing.T) {
	c := mustNew(t, 1, 1)
	n1 := c.Node(1)
	crashAt := n1.blockSec() + 50*1000*n1.cost.ComputeSec*n1.slowdown
	if err := c.ScheduleCrash(1, crashAt, ""); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(n *Node) error {
		n.ChargeIOBlocks(1)
		published := n.LiveClock()
		for i := 0; i < 100; i++ {
			n.ChargeCompute(1000)
			if n.LiveClock() != published {
				t.Errorf("node %d: a compute charge published the live clock", n.ID())
			}
		}
		return nil
	})
	if !IsCrash(err) {
		t.Fatalf("want node 1 to crash on a compute charge, got %v", err)
	}
	for i := range c.P() {
		n := c.Node(i)
		if math.Float64bits(n.LiveClock()) != math.Float64bits(n.Clock()) {
			t.Errorf("node %d: live clock %v after Run, clock %v", i, n.LiveClock(), n.Clock())
		}
	}
	if n1.Clock() >= c.Node(0).Clock() {
		t.Errorf("node 1 ran on to clock %v; it should have died mid-compute", n1.Clock())
	}
}
