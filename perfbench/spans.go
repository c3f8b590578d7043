package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer, and writes them as Chrome trace-event JSON (which Perfetto and
// chrome://tracing open). A nil *tracer records nothing, so call sites
// need no branches.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []traceEvent
	nextID int
}

// traceEvent is one complete ("X") event of the trace-event format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since the tracer started
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open span; end closes it.
type span struct {
	t      *tracer
	id     int
	parent int
	name   string
	layer  string
	tid    int
	start  time.Time
}

// start opens a span for a call into layer. parent is the causing
// span's id (0 for a root); tid groups spans onto one track.
func (t *tracer) start(layer, name string, parent, tid int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &span{t: t, id: id, parent: parent, name: name, layer: layer, tid: tid, start: time.Now()}
}

// ID returns the span's id, or 0 for a nil span.
func (s *span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// end closes the span, attaching args.
func (s *span) end(args map[string]any) {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if args == nil {
		args = map[string]any{}
	}
	args["span"] = s.id
	if s.parent != 0 {
		args["parent"] = s.parent
	}
	ev := traceEvent{
		Name: s.name, Cat: s.layer, Ph: "X",
		TS:  float64(s.start.Sub(s.t.epoch).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		PID: 1, TID: s.tid, Args: args,
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, ev)
	s.t.mu.Unlock()
}

// complete records an already-measured interval (e.g. a stage timing
// reported by an observer) that ended now.
func (t *tracer) complete(layer, name string, parent, tid int, d time.Duration) {
	if t == nil {
		return
	}
	end := time.Now()
	sp := t.start(layer, name, parent, tid)
	sp.start = end.Add(-d)
	if sp.start.Before(t.epoch) {
		sp.start = t.epoch
	}
	sp.end(nil)
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// write stores the trace as {"traceEvents": [...]} at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{append([]traceEvent{}, t.events...), "ms"}
	t.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
