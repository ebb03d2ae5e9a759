package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. The
// benchmark records spans around its own calls only; spans inside the
// engine are a later change.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the causing span, -1 for the root
	Workload string `json:"workload"`
	// Count is the number of layer operations the span covers.
	Count uint64 `json:"count"`
}

// rootSpan is the index of the per-workload root span.
const rootSpan = 0

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, t0: time.Now()}
	t.spans = append(t.spans, span{Name: "workload", Parent: -1, Workload: workload})
	return t
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int, count uint64) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Count = count
	return float64(s.EndNS-s.StartNS) / 1e9
}

// write closes the root span and stores every span as JSON.
func (t *tracer) write(dir string) (string, error) {
	t.end(rootSpan, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
