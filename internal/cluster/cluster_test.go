package cluster

import (
	"fmt"
	"strings"
	"testing"

	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

func mustNew(t *testing.T, slowdowns ...float64) *Cluster {
	t.Helper()
	c, err := New(Config{Slowdowns: slowdowns})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty cluster must be rejected")
	}
	if _, err := New(Config{Slowdowns: []float64{1, 0.5}}); err == nil {
		t.Fatal("slowdown < 1 must be rejected")
	}
}

func TestDefaults(t *testing.T) {
	c := mustNew(t, 1, 1)
	if c.P() != 2 {
		t.Fatalf("P=%d", c.P())
	}
	if c.Node(0).FS() == nil {
		t.Fatal("default disks missing")
	}
}

func TestRunAllNodesExecute(t *testing.T) {
	c := mustNew(t, 1, 1, 1, 1)
	seen := make([]bool, 4)
	err := c.Run(func(n *Node) error {
		seen[n.ID()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("node %d did not run", i)
		}
	}
}

func TestRunJoinsErrors(t *testing.T) {
	c := mustNew(t, 1, 1)
	err := c.Run(func(n *Node) error {
		if n.ID() == 1 {
			return errTest
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("err=%v", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestRunRecoversPanic(t *testing.T) {
	c := mustNew(t, 1)
	err := c.Run(func(n *Node) error { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err=%v", err)
	}
}

func TestSendRecvPayloadAndTag(t *testing.T) {
	c := mustNew(t, 1, 1)
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Send(1, 7, []record.Key{1, 2, 3})
		}
		got, err := n.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("payload %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMismatch(t *testing.T) {
	c := mustNew(t, 1, 1)
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Send(1, 7, nil)
		}
		_, err := n.Recv(0, 8)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Fatalf("err=%v", err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	c := mustNew(t, 1, 1)
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			buf := []record.Key{42}
			if err := n.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
			return nil
		}
		got, err := n.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("payload aliased sender buffer: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	c := mustNew(t, 1)
	err := c.Run(func(n *Node) error {
		if err := n.Send(5, 0, nil); err == nil {
			t.Error("Send to invalid rank accepted")
		}
		if _, err := n.Recv(-1, 0); err == nil {
			t.Error("Recv from invalid rank accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockAdvancesOnTransfer(t *testing.T) {
	c := mustNew(t, 1, 1)
	const keys = 100000
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Send(1, 0, make([]record.Key, keys))
		}
		_, err := n.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bytes := int64(keys) * record.KeySize
	// The default interconnect prices the sender's occupancy.
	occupancy := FastEthernet().TransferSec(bytes)
	if got := c.Node(0).Clock(); got != occupancy {
		t.Fatalf("sender clock %v, want the transmit occupancy %v", got, occupancy)
	}
	if got := c.Node(1).Clock(); got < occupancy {
		t.Fatalf("receiver clock %v < transfer time %v", got, occupancy)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	c := mustNew(t, 1)
	err := c.Run(func(n *Node) error {
		if err := n.Send(0, 3, []record.Key{9}); err != nil {
			return err
		}
		got, err := n.Recv(0, 3)
		if err != nil {
			return err
		}
		if got[0] != 9 {
			t.Errorf("self payload %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(0).Clock() != 0 {
		t.Fatalf("self-send should cost nothing, clock=%v", c.Node(0).Clock())
	}
}

func TestSlowdownScalesLocalWork(t *testing.T) {
	c, err := New(Config{Slowdowns: []float64{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(n *Node) error {
		n.ChargeCompute(1000)
		n.ChargeIOBlocks(10)
		n.ChargeSeek(2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := c.Node(0).Clock(), c.Node(1).Clock()
	ratio := slow / fast
	if ratio < 3.99 || ratio > 4.01 {
		t.Fatalf("slowdown ratio %v want 4", ratio)
	}
}

func TestMeterChargesMatchCostModel(t *testing.T) {
	cost := vtime.CostModel{ComputeSec: 1, IOBlockSecPerKey: 2, SeekSec: 5}
	c, err := New(Config{Slowdowns: []float64{1}, Cost: cost, BlockKeys: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(n *Node) error {
		n.ChargeCompute(2)   // 2
		n.ChargeIOBlocks(1)  // 1*3*2 = 6
		n.ChargeSeek(1)      // 5
		n.AdvanceClock(0.25) // fixed
		return nil
	})
	if got, want := c.Node(0).Clock(), 13.25; got != want {
		t.Fatalf("clock=%v want %v", got, want)
	}
}

func TestNetModelTransfer(t *testing.T) {
	m := NetModel{Name: "x", LatencySec: 0.001, BytesPerSec: 1000}
	if got := m.TransferSec(500); got != 0.501 {
		t.Fatalf("TransferSec=%v", got)
	}
	if got := NetIdeal.Model().TransferSec(1 << 30); got != 0 {
		t.Fatalf("ideal transfer should be free, got %v", got)
	}
}

// TestNetworkModels pins each preset's numbers and name: every model
// number of a run on it depends on them.
func TestNetworkModels(t *testing.T) {
	for _, want := range []NetModel{
		{Name: "fast-ethernet", LatencySec: 120e-6, BytesPerSec: 11e6},
		{Name: "myrinet", LatencySec: 12e-6, BytesPerSec: 140e6},
		{Name: "ideal"},
	} {
		var n Network
		if err := n.UnmarshalText([]byte(want.Name)); err != nil || n.Model() != want {
			t.Errorf("%s: %v, %v; want %v", want.Name, n.Model(), err, want)
		}
	}
	if FastEthernet() != NetFastEthernet.Model() || Network(0) != NetFastEthernet {
		t.Error("Fast Ethernet is not the default network")
	}
}

func TestPresetsOrdering(t *testing.T) {
	fe, my := FastEthernet(), NetMyrinet.Model()
	if my.LatencySec >= fe.LatencySec {
		t.Fatal("Myrinet latency should beat Fast Ethernet")
	}
	if my.BytesPerSec <= fe.BytesPerSec {
		t.Fatal("Myrinet bandwidth should beat Fast Ethernet")
	}
}

func TestGather(t *testing.T) {
	c := mustNew(t, 1, 1, 1, 1)
	err := c.Run(func(n *Node) error {
		parts, err := n.Gather(0, 1, []record.Key{record.Key(n.ID() * 10)})
		if err != nil {
			return err
		}
		if n.ID() == 0 {
			for i, p := range parts {
				if len(p) != 1 || p[0] != record.Key(i*10) {
					t.Errorf("part %d = %v", i, p)
				}
			}
		} else if parts != nil {
			t.Errorf("non-root got parts")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	c := mustNew(t, 1, 1, 1)
	err := c.Run(func(n *Node) error {
		var in []record.Key
		if n.ID() == 0 {
			in = []record.Key{5, 6}
		}
		if _, err := n.Bcast(2, 1, in); err == nil {
			t.Errorf("node %d: broadcast from root 2 accepted", n.ID())
		}
		got, err := n.Bcast(0, 1, in)
		if err != nil {
			return err
		}
		if len(got) != 2 || got[0] != 5 || got[1] != 6 {
			t.Errorf("node %d bcast got %v", n.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	c := mustNew(t, 1, 1, 1, 1)
	err := c.Run(func(n *Node) error {
		// Node 3 does a lot of local work before the barrier.
		if n.ID() == 3 {
			n.AdvanceClock(100)
		}
		if err := n.TreeBarrier(n.P(), 10); err != nil {
			return err
		}
		if n.Clock() < 100 {
			t.Errorf("node %d clock %v below barrier max 100", n.ID(), n.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() []float64 {
		c := mustNew(t, 1, 2, 3, 4)
		err := c.Run(func(n *Node) error {
			n.ChargeCompute(int64(1000 * (n.ID() + 1)))
			if err := n.TreeBarrier(n.P(), 0); err != nil {
				return err
			}
			// Ring exchange.
			next := (n.ID() + 1) % n.P()
			prev := (n.ID() + n.P() - 1) % n.P()
			if err := n.Send(next, 2, make([]record.Key, 100*(n.ID()+1))); err != nil {
				return err
			}
			_, err := n.Recv(prev, 2)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		clocks := make([]float64, c.P())
		for i := range clocks {
			clocks[i] = c.Node(i).Clock()
		}
		return clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clock %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResetClocks(t *testing.T) {
	c := mustNew(t, 1, 1)
	c.Run(func(n *Node) error {
		n.ChargeCompute(100)
		n.Counter().AddRead(5)
		return nil
	})
	if c.MaxClock() == 0 {
		t.Fatal("clock should have advanced")
	}
	c.ResetClocks()
	if c.MaxClock() != 0 || c.Node(0).IOStats().Total() != 0 {
		t.Fatal("ResetClocks incomplete")
	}
}

func TestMaxClock(t *testing.T) {
	c := mustNew(t, 1, 1, 1)
	c.Run(func(n *Node) error {
		n.AdvanceClock(float64(n.ID()) * 2)
		return nil
	})
	if got := c.MaxClock(); got != 4 {
		t.Fatalf("MaxClock=%v want 4", got)
	}
}

func TestAcctChargesNodeAndCounter(t *testing.T) {
	c := mustNew(t, 1)
	err := c.Run(func(n *Node) error {
		acct := n.Acct()
		acct.Counter.AddRead(1)
		acct.Meter.ChargeIOBlocks(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(0).IOStats().Reads != 1 {
		t.Fatal("counter not wired")
	}
	if c.Node(0).Clock() == 0 {
		t.Fatal("meter not wired")
	}
}

// TestLinksAreUnbounded: a node queues far more messages than any old
// fixed link capacity on its self link and on a remote link before
// anyone receives, and every send succeeds; both receivers then get
// every message in send order.
func TestLinksAreUnbounded(t *testing.T) {
	const msgs = 10000
	c := mustNew(t, 1, 1, 1)
	drain := func(n *Node, from int) error {
		for i := 0; i < msgs; i++ {
			got, err := n.Recv(from, 1)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != record.Key(i) {
				return fmt.Errorf("node %d: message %d from %d is %v", n.ID(), i, from, got)
			}
		}
		return nil
	}
	err := c.Run(func(n *Node) error {
		switch n.ID() {
		case 1:
			// The go-ahead comes only once all of node 0's sends are
			// queued, relayed through node 2 (a link carries one tag
			// order, so it cannot share node 0's link).
			if _, err := n.Recv(2, 2); err != nil {
				return err
			}
			return drain(n, 0)
		case 2:
			if _, err := n.Recv(0, 2); err != nil {
				return err
			}
			return n.Send(1, 2, nil)
		}
		for i := 0; i < msgs; i++ {
			for _, to := range []int{0, 1} {
				if err := n.Send(to, 1, []record.Key{record.Key(i)}); err != nil {
					return err
				}
			}
		}
		if err := n.Send(2, 2, nil); err != nil {
			return err
		}
		return drain(n, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if got := c.LinkQueueHWM(id); got != msgs {
			t.Errorf("node %d: in-link queue high-water mark %d, want %d", id, got, msgs)
		}
	}
}

// TestRecvWaitsOnItsOwnLink: a Recv blocked on one link keeps waiting
// while another link floods the same node (every flood message can wake
// the node's shared wake channel), and returns its own link's message
// once that lands; the flood is then delivered intact.
func TestRecvWaitsOnItsOwnLink(t *testing.T) {
	const flood = 2000
	c := mustNew(t, 1, 1, 1)
	err := c.Run(func(n *Node) error {
		switch n.ID() {
		case 0: // link A: sends once node 1's flood is queued
			if _, err := n.Recv(1, 9); err != nil {
				return err
			}
			return n.Send(2, 1, []record.Key{42})
		case 1: // link B: floods node 2, then lets node 0 go
			for i := 0; i < flood; i++ {
				if err := n.Send(2, 2, []record.Key{record.Key(i)}); err != nil {
					return err
				}
			}
			return n.Send(0, 9, nil)
		}
		got, err := n.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != 42 {
			return fmt.Errorf("link A delivered %v, want [42]", got)
		}
		for i := 0; i < flood; i++ {
			got, err := n.Recv(1, 2)
			if err != nil {
				return err
			}
			if got[0] != record.Key(i) {
				return fmt.Errorf("flood message %d is %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvMaterializesLink: a link that only a Recv touched counts as
// created, exactly like one a Send touched.
func TestRecvMaterializesLink(t *testing.T) {
	c := mustNew(t, 1, 1)
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return errTest // node 1's Recv aborts; nothing is ever sent
		}
		_, err := n.Recv(0, 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("want node 1's receive to abort, got %v", err)
	}
	if got := c.LinksCreated(); got != 1 {
		t.Fatalf("LinksCreated = %d after one receive-only link, want 1", got)
	}
}

func TestDisksPerNodeSpeedsIO(t *testing.T) {
	run := func(d int) float64 {
		c, err := New(Config{Slowdowns: []float64{1}, DisksPerNode: d})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(func(n *Node) error {
			if n.Disks() != d {
				t.Errorf("Disks()=%d want %d", n.Disks(), d)
			}
			n.ChargeIOBlocks(100)
			return nil
		})
		return c.MaxClock()
	}
	one, four := run(1), run(4)
	if ratio := one / four; ratio < 3.99 || ratio > 4.01 {
		t.Fatalf("D=4 should cut I/O time 4x, got ratio %v", ratio)
	}
}

func TestDisksPerNodeDoesNotAffectCompute(t *testing.T) {
	c, err := New(Config{Slowdowns: []float64{1}, DisksPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(n *Node) error {
		n.ChargeCompute(1000)
		return nil
	})
	c2, _ := New(Config{Slowdowns: []float64{1}})
	c2.Run(func(n *Node) error {
		n.ChargeCompute(1000)
		return nil
	})
	if c.MaxClock() != c2.MaxClock() {
		t.Fatal("disk count changed compute cost")
	}
}
