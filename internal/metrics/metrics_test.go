package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("io.reads")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("io.reads") != c {
		t.Fatal("Counter is not idempotent per name")
	}
	g := r.Gauge("queue.depth")
	g.Set(7.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
	snap := r.Snapshot()
	if snap["io.reads"] != 4 || snap["queue.depth"] != 7.5 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{0.001, 0.002, 0.004, 0.1, 1.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 1.607; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if h.Min() != 0.001 || h.Max() != 1.5 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q < 0.002 || q > 0.1 {
		t.Fatalf("p50 = %v outside [0.002, 0.1]", q)
	}
	if q := h.Quantile(1); q != 1.5 {
		t.Fatalf("p100 = %v, want clamped to max 1.5", q)
	}
	snap := r.Snapshot()
	for _, k := range []string{"lat.count", "lat.sum", "lat.min", "lat.max", "lat.p50", "lat.p99"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot missing %s: %v", k, snap)
		}
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-3)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != -3 || h.Max() != 0 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(10)
	h := r.Histogram("h")
	h.Observe(2)
	g := r.Gauge("g")
	g.Set(1)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("reset left state: c=%d g=%v h.count=%d", c.Value(), g.Value(), h.Count())
	}
	// Handles survive a reset.
	c.Inc()
	if r.Snapshot()["c"] != 1 {
		t.Fatal("handle dead after Reset")
	}
}

// TestConcurrentUpdates exercises the registry from many goroutines so
// `go test -race` verifies the lock-cheap paths are data-race free.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared.counter")
			h := r.Histogram("shared.hist")
			g := r.Gauge("shared.gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%17) / 16)
				g.Set(float64(i))
				if i%64 == 0 {
					// Concurrent registration and snapshots must be safe too.
					r.Counter("shared.counter").Add(0)
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared.hist").Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
}
