// Package trace records structured events from a simulated cluster run
// — phase transitions, messages, per-node progress — with virtual
// timestamps, and renders them as a readable timeline.  It exists for
// debugging the algorithms and for inspecting where virtual time goes;
// the experiment harness can attach a tracer to any run.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies an event.
type Kind int

const (
	// PhaseBegin marks a node entering a named phase.
	PhaseBegin Kind = iota
	// PhaseEnd marks a node leaving a named phase.
	PhaseEnd
	// MessageSent records a point-to-point send (Detail = "to:N keys:K").
	MessageSent
	// MessageReceived records a receive (Detail = "from:N keys:K").
	MessageReceived
	// Mark is a free-form annotation.
	Mark
	// Checkpoint records a durable phase-manifest commit (Detail
	// describes the committed phase and clock).
	Checkpoint
	// Recovery records a recovery action during a resumed run: a
	// skipped (already committed) phase, a clock replay, or a re-sent
	// redistribution segment.
	Recovery
	// Pipeline records a fused-pass decision: step 1 stopped one merge
	// short and left its runs ("runs"), the node merged incoming streams
	// directly into its output ("fused"), or it fell back to the barrier
	// path ("fallback").
	Pipeline
)

func (k Kind) String() string {
	switch k {
	case PhaseBegin:
		return "phase-begin"
	case PhaseEnd:
		return "phase-end"
	case MessageSent:
		return "send"
	case MessageReceived:
		return "recv"
	case Mark:
		return "mark"
	case Checkpoint:
		return "checkpoint"
	case Recovery:
		return "recovery"
	case Pipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	Node   int
	Clock  float64 // virtual time at which it happened
	Kind   Kind
	Label  string // phase name or annotation
	Detail string
	// Seq is a monotonic sequence number assigned by Log.Add, the final
	// ordering tiebreaker: virtual clocks carry no sub-event resolution,
	// so same-clock same-node events (a send and the phase-end right
	// after it) would otherwise shuffle under a non-stable sort.
	Seq int64
}

// Log collects events from concurrently running nodes.  The zero value
// is ready to use.
type Log struct {
	mu     sync.Mutex
	seq    int64
	events []Event
}

// Add records an event, stamping it with the next sequence number.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the events sorted by (clock, node, seq).
func (l *Log) Events() []Event {
	l.mu.Lock()
	out := append([]Event(nil), l.events...)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Clock != out[j].Clock {
			return out[i].Clock < out[j].Clock
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Reset clears the log and restarts the sequence numbering.
func (l *Log) Reset() {
	l.mu.Lock()
	l.events = l.events[:0]
	l.seq = 0
	l.mu.Unlock()
}

// PhaseSpan is a phase on one node.  Open spans are phases whose
// PhaseEnd was never recorded (the node crashed or the run was cut
// short); their End is the clock of the last event in the log.
type PhaseSpan struct {
	Node       int
	Label      string
	Begin, End float64
	Open       bool
}

// Duration returns the span length.
func (s PhaseSpan) Duration() float64 { return s.End - s.Begin }

// Spans pairs PhaseBegin/PhaseEnd events per node and label, in begin
// order.  A phase with no matching end — a crashed node's last phase —
// is emitted as an open span ending at the log's final event clock,
// rather than silently dropped.
func (l *Log) Spans() []PhaseSpan {
	type key struct {
		node  int
		label string
	}
	open := map[key]float64{}
	var spans []PhaseSpan
	var last float64
	for _, e := range l.Events() {
		if e.Clock > last {
			last = e.Clock
		}
		k := key{e.Node, e.Label}
		switch e.Kind {
		case PhaseBegin:
			open[k] = e.Clock
		case PhaseEnd:
			if b, ok := open[k]; ok {
				spans = append(spans, PhaseSpan{Node: e.Node, Label: e.Label, Begin: b, End: e.Clock})
				delete(open, k)
			}
		}
	}
	for k, b := range open {
		end := last
		if end < b {
			end = b
		}
		spans = append(spans, PhaseSpan{Node: k.node, Label: k.label, Begin: b, End: end, Open: true})
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Begin != spans[j].Begin {
			return spans[i].Begin < spans[j].Begin
		}
		if spans[i].Node != spans[j].Node {
			return spans[i].Node < spans[j].Node
		}
		return spans[i].Label < spans[j].Label
	})
	return spans
}

// Timeline renders the event log as one line per event, with a trailing
// line per phase that never closed (a crashed node's final phase).
func (l *Log) Timeline() string {
	var b strings.Builder
	for _, e := range l.Events() {
		fmt.Fprintf(&b, "%12.6fs  node%-2d  %-11s %s", e.Clock, e.Node, e.Kind, e.Label)
		if e.Detail != "" {
			fmt.Fprintf(&b, " (%s)", e.Detail)
		}
		b.WriteByte('\n')
	}
	for _, s := range l.Spans() {
		if s.Open {
			fmt.Fprintf(&b, "%12.6fs  node%-2d  %-11s %s (unclosed)\n", s.End, s.Node, "phase-open", s.Label)
		}
	}
	return b.String()
}

// Gantt renders the phase spans as a proportional text chart, one row
// per (node, phase), width columns wide.
func (l *Log) Gantt(width int) string {
	spans := l.Spans()
	if len(spans) == 0 {
		return "(no phases recorded)\n"
	}
	if width < 20 {
		width = 20
	}
	var max float64
	for _, s := range spans {
		if s.End > max {
			max = s.End
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	labelW := 0
	for _, s := range spans {
		if n := len(s.Label); n > labelW {
			labelW = n
		}
	}
	for _, s := range spans {
		// Half-up rounding keeps adjacent spans visually contiguous (a
		// truncating cast left one-column gaps); the clamps guarantee
		// 0 <= begin < end <= width for every span, including ones that
		// round to the right edge.
		begin := int(s.Begin/max*float64(width) + 0.5)
		end := int(s.End/max*float64(width) + 0.5)
		if begin >= width {
			begin = width - 1
		}
		if end > width {
			end = width
		}
		if end <= begin {
			end = begin + 1
		}
		fill, note := "=", ""
		if s.Open {
			fill, note = "-", " (open)"
		}
		fmt.Fprintf(&b, "node%-2d %-*s |%s%s%s| %8.3fs%s\n",
			s.Node, labelW, s.Label,
			strings.Repeat(" ", begin),
			strings.Repeat(fill, end-begin),
			strings.Repeat(" ", width-end),
			s.Duration(), note)
	}
	return b.String()
}
