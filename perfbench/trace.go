package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the enclosing span's ID (-1 at the top).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Self   float64            `json:"self_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Replay bool               `json:"replay,omitempty"`
	child  float64            // summed duration of direct children
}

// tracer keeps spans in memory until the run ends. The benchmark calls
// the layers from one goroutine, so an open-span stack gives parents.
// A nil *tracer records nothing, which is how untraced ops run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
	// replay marks spans opened while replaying a sweep after an op;
	// the overhead comparison excludes them.
	replay bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: t.op, Name: name, Replay: t.replay,
		Start: time.Since(t.t0).Seconds(),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// attaches the given counters to it.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Seconds()
	s.Attrs = attrs
	t.open = t.open[:len(t.open)-1]
	// A layer's self time is its duration minus what its children
	// cover; children run one after another inside it.
	s.Self = s.End - s.Start - s.child
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.End - s.Start
	}
}

// selfByName sums self time per span name, replay spans excluded.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		if !s.Replay {
			out[s.Name] += s.Self
		}
	}
	return out
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
