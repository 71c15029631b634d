package cluster

import (
	"testing"

	"hetsort/internal/record"
)

func BenchmarkPointToPoint(b *testing.B) {
	c, err := New(Config{Slowdowns: []float64{1, 1}})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]record.Key, 8192)
	b.SetBytes(int64(len(payload)) * record.KeySize)
	b.ResetTimer()
	err = c.Run(func(n *Node) error {
		// Ping-pong so the link buffer never overflows at large b.N.
		for i := 0; i < b.N; i++ {
			if n.ID() == 0 {
				if err := n.Send(1, 1, payload); err != nil {
					return err
				}
				if _, err := n.Recv(1, 2); err != nil {
					return err
				}
			} else {
				if _, err := n.Recv(0, 1); err != nil {
					return err
				}
				if err := n.Send(0, 2, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
