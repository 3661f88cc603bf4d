package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one call into a layer, recorded by the benchmark around its own
// calls. Spans of one request share Req; Parent is the enclosing span's
// ID (0 for a request's root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: Do just calls fn.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []Span
}

func newTracer() *Tracer {
	return &Tracer{start: time.Now(), spans: make([]Span, 0, 1<<14)}
}

// Begin opens a span starting now and returns its ID (0 when untraced).
func (t *Tracer) Begin(req, parent int, layer, name string) int {
	return t.BeginAt(req, parent, layer, name, time.Now())
}

// BeginAt opens a span that started at the given time: a request's root
// span starts when the request was due, not when it was sent.
func (t *Tracer) BeginAt(req, parent int, layer, name string, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: at.Sub(t.start)})
	return id
}

// End closes span id now.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.start)
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Do runs fn inside a span; fn receives the span's ID to parent its own
// spans. Safe for concurrent use.
func (t *Tracer) Do(req, parent int, layer, name string, fn func(id int)) {
	id := t.Begin(req, parent, layer, name)
	fn(id)
	t.End(id)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover. Children that overlap (parallel
// trials under one sweep) are counted once.
func selfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// durationsMs lists the durations of the spans with the given layer and
// name (any name when name is empty), in milliseconds.
func durationsMs(spans []Span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}
