package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out once at
// the end, in the Chrome trace-event format Perfetto opens. A nil tracer is
// the untraced run: its clocks still time calls, but it records no span and
// reads no allocation counter.
type tracer struct {
	t0    time.Time
	spans []span
}

type span struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	TS   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// on reports whether calls should be timed for the trace.
func (t *tracer) on() bool { return t != nil }

// start opens a clock for a span; allocation tracking rides along.
func (t *tracer) start() clock { return startClock(t.on()) }

// end records a span named name that began at c, with the MB it allocated.
// It returns the span's duration and allocation for callers that also
// aggregate them.
func (t *tracer) end(name string, c clock) (time.Duration, float64) {
	d, mb := c.stop()
	if t == nil {
		return d, mb
	}
	t.spans = append(t.spans, span{
		Name: name, Ph: "X", PID: 1, TID: 1,
		TS:   float64(c.t0.Sub(t.t0)) / 1e3,
		Dur:  float64(d) / 1e3,
		Args: map[string]float64{"alloc_mb": mb},
	})
	return d, mb
}

// write dumps the spans as a trace-event JSON file.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	b, err := json.Marshal(map[string]any{"traceEvents": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
