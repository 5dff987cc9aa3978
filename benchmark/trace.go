package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent indexes the enclosing
// span (-1 at the top) and Rep is the repetition the span belongs to
// (-1 outside the traced repetitions).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends. The benchmark calls
// the layers from one goroutine, so the open spans form a stack. A nil
// tracer records nothing, which is how the untraced repetitions run the
// same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), rep: -1} }

// in runs f inside a span called name.
func (t *tracer) in(name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Rep: t.rep})
	t.open = append(t.open, id)
	err := f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	return err
}

// selfTimes returns, per span, its duration minus the part of it its
// child spans cover. Children of one span never overlap: the stack
// discipline closes one before the next opens.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName collects the self times of the spans of the traced
// repetitions by span name, one sample per repetition.
func (t *tracer) selfByName() map[string][]float64 {
	self := selfTimes(t.spans)
	perRep := map[string]map[int]float64{}
	for i, s := range t.spans {
		if s.Rep < 0 {
			continue
		}
		if perRep[s.Name] == nil {
			perRep[s.Name] = map[int]float64{}
		}
		perRep[s.Name][s.Rep] += float64(self[i])
	}
	out := map[string][]float64{}
	for name, reps := range perRep {
		for _, v := range reps {
			out[name] = append(out[name], v)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
