package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around a public entry point. Spans of one suite cell or one
// service query share a Cell id; Parent is the id of the enclosing span
// (0 for the pass root itself).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Cell   string `json:"cell,omitempty"`
	// StartNS and EndNS are offsets from the start of the traced pass.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// rootLayer names the pass root: its self time is the part of the
// traced wall time no layer span covers.
const rootLayer = "unattributed"

// tracer records spans in memory for one traced pass. Traced passes run
// on a single goroutine (cells and queries one at a time), so spans nest
// strictly and a stack gives every span its parent. A nil *tracer is a
// valid no-op recorder: the untraced reference pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.spans = append(tr.spans, span{ID: 0, Parent: -1, Name: "pass", Layer: rootLayer})
	tr.stack = []int{0}
	return tr
}

// begin opens a span as a child of the innermost open span and returns
// the function that closes it.
func (tr *tracer) begin(name, layer, cell string) func() {
	if tr == nil {
		return func() {}
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{
		ID: id, Parent: tr.stack[len(tr.stack)-1], Name: name, Layer: layer, Cell: cell,
		StartNS: time.Since(tr.t0).Nanoseconds(),
	})
	tr.stack = append(tr.stack, id)
	return func() {
		tr.spans[id].EndNS = time.Since(tr.t0).Nanoseconds()
		tr.stack = tr.stack[:len(tr.stack)-1]
	}
}

// add records an already finished span (e.g. one population of a sweep,
// timed from its progress callbacks) under the innermost open span.
func (tr *tracer) add(name, layer, cell string, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans), Parent: tr.stack[len(tr.stack)-1], Name: name, Layer: layer, Cell: cell,
		StartNS: start.Sub(tr.t0).Nanoseconds(), EndNS: end.Sub(tr.t0).Nanoseconds(),
	})
}

// finish closes the pass root and returns the traced wall time.
func (tr *tracer) finish() time.Duration {
	tr.spans[0].EndNS = time.Since(tr.t0).Nanoseconds()
	return time.Duration(tr.spans[0].EndNS)
}

// layerSelf sums span self times by layer: a span's duration minus the
// part its child spans cover. Children never overlap (one goroutine), so
// the sums over all layers, root included, equal the traced wall time.
func (tr *tracer) layerSelf() map[string]time.Duration {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans[1:] {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[string]time.Duration{}
	for i, s := range tr.spans {
		out[s.Layer] += time.Duration(s.EndNS - s.StartNS - child[i])
	}
	return out
}

// durations returns the durations of every span with the given name.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// write stores the spans as JSON, sorted by start time, under dir.
func (tr *tracer) write(dir, file string, env map[string]any) (string, error) {
	spans := append([]span(nil), tr.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	data, err := json.MarshalIndent(struct {
		Env   map[string]any `json:"env"`
		Spans []span         `json:"spans"`
	}{env, spans}, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
