package cluster

import (
	"errors"
	"strings"
	"testing"

	"hetsort/internal/record"
	"hetsort/internal/trace"
)

// TestClusterReusableAfterFailure checks that a run which aborted with
// in-flight messages leaves the cluster usable: the next Run drains the
// stale links.
func TestClusterReusableAfterFailure(t *testing.T) {
	c := mustNew(t, 1, 1)
	boom := errors.New("boom")
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			// Leave a stale message in flight, then fail.
			if err := n.Send(1, 5, []record.Key{1}); err != nil {
				return err
			}
			return boom
		}
		// Node 1 returns without receiving.
		return nil
	})
	if err == nil {
		t.Fatal("first run should fail")
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
			t.Errorf("stale message leaked into second run: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
}

func TestAbortUnblocksWaitingPeer(t *testing.T) {
	c := mustNew(t, 1, 1)
	boom := errors.New("boom")
	err := c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return boom // never sends
		}
		_, rerr := n.Recv(0, 1) // would block forever without abort
		return rerr
	})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("want abort error, got %v", err)
	}
}

func TestAbortUnblocksBarrier(t *testing.T) {
	c := mustNew(t, 1, 1, 1)
	boom := errors.New("boom")
	err := c.Run(func(n *Node) error {
		if n.ID() == 2 {
			return boom
		}
		return n.TreeBarrier(n.P(), 50)
	})
	if err == nil {
		t.Fatal("expected joined errors")
	}
}

func TestEightNodeCollectives(t *testing.T) {
	slow := make([]float64, 8)
	for i := range slow {
		slow[i] = float64(i%4 + 1)
	}
	c, err := New(Config{Slowdowns: slow})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(n *Node) error {
		parts, err := n.Gather(0, 3, []record.Key{record.Key(n.ID() * n.ID())})
		if err != nil {
			return err
		}
		var flat []record.Key
		for _, part := range parts {
			flat = append(flat, part...)
		}
		all, err := n.Bcast(0, 4, flat)
		if err != nil {
			return err
		}
		if len(all) != 8 {
			t.Errorf("gather+bcast len %d", len(all))
		}
		for i, v := range all {
			if v != record.Key(i*i) {
				t.Errorf("gather+bcast[%d]=%d", i, v)
			}
		}
		return n.TreeBarrier(n.P(), 10)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTracePhaseAndMark(t *testing.T) {
	tl := new(trace.Log)
	c, err := New(Config{Slowdowns: []float64{1}, Trace: tl})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(n *Node) error {
		end := n.TracePhase("work")
		n.AdvanceClock(2)
		end()
		n.TraceEvent(trace.Mark, "checkpoint", "detail")
		return nil
	})
	spans := tl.Spans()
	if len(spans) != 1 || spans[0].Duration() != 2 {
		t.Fatalf("spans %v", spans)
	}
	if !strings.Contains(tl.Timeline(), "checkpoint") {
		t.Fatal("mark missing")
	}
}

func TestTraceNilIsFree(t *testing.T) {
	c := mustNew(t, 1)
	err := c.Run(func(n *Node) error {
		end := n.TracePhase("x") // must not panic
		end()
		n.TraceEvent(trace.Mark, "y", "z")
		return n.Send(0, 1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecordsMessages(t *testing.T) {
	tl := new(trace.Log)
	c, err := New(Config{Slowdowns: []float64{1, 1}, Trace: tl})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Send(1, 7, []record.Key{1, 2})
		}
		_, rerr := n.Recv(0, 7)
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	var sends, recvs int
	for _, e := range tl.Events() {
		switch e.Kind {
		case trace.MessageSent:
			sends++
			if !strings.Contains(e.Detail, "keys:2") {
				t.Errorf("send detail %q", e.Detail)
			}
		case trace.MessageReceived:
			recvs++
		}
	}
	if sends != 1 || recvs != 1 {
		t.Fatalf("sends=%d recvs=%d", sends, recvs)
	}
}
