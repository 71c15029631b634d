package cluster

import (
	"testing"
	"testing/quick"

	"hetsort/internal/record"
)

// TestConservativeClockProperty: for random point-to-point schedules,
// a receiver's clock after Recv is never earlier than the sender's
// clock at send time plus the wire latency — the conservative rule that
// makes the virtual times causally consistent.
func TestConservativeClockProperty(t *testing.T) {
	f := func(workRaw [2]uint16, payloadRaw uint16) bool {
		c, err := New(Config{Slowdowns: []float64{1, 1}})
		if err != nil {
			return false
		}
		payload := make([]record.Key, int(payloadRaw)%5000)
		var sendClock float64
		err = c.Run(func(n *Node) error {
			n.ChargeCompute(int64(workRaw[n.ID()]))
			if n.ID() == 0 {
				if err := n.Send(1, 1, payload); err != nil {
					return err
				}
				sendClock = n.Clock()
				return nil
			}
			_, err := n.Recv(0, 1)
			return err
		})
		if err != nil {
			return false
		}
		// Receiver must be at or past the arrival time.
		return c.Node(1).Clock() >= sendClock+FastEthernet().LatencySec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOPerLink: messages between a fixed pair arrive in send order
// with non-decreasing arrival stamps.
func TestFIFOPerLink(t *testing.T) {
	c := mustNew(t, 1, 1)
	const msgs = 50
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := n.Send(1, 1, []record.Key{record.Key(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		prevClock := -1.0
		for i := 0; i < msgs; i++ {
			got, err := n.Recv(0, 1)
			if err != nil {
				return err
			}
			if got[0] != record.Key(i) {
				t.Errorf("message %d out of order: %v", i, got)
			}
			if n.Clock() < prevClock {
				t.Errorf("clock went backwards: %v after %v", n.Clock(), prevClock)
			}
			prevClock = n.Clock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBandwidthProportionalOccupancy: doubling the payload roughly
// doubles the sender occupancy beyond the fixed overhead.
func TestBandwidthProportionalOccupancy(t *testing.T) {
	occupancy := func(keys int) float64 {
		c := mustNew(t, 1, 1)
		err := c.Run(func(n *Node) error {
			if n.ID() == 0 {
				return n.Send(1, 1, make([]record.Key, keys))
			}
			_, err := n.Recv(0, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Node(0).Clock()
	}
	small := occupancy(10000)
	big := occupancy(20000)
	fixed := occupancy(0)
	ratio := (big - fixed) / (small - fixed)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("occupancy not bandwidth-proportional: ratio %v", ratio)
	}
}
