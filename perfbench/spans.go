package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Start and End
// are seconds since the tracer started; Parent is the id of the span that
// caused it (-1 for a root); spans of one job or solve share Job.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Job    string  `json:"job"`
}

// tracer keeps spans in memory; write dumps them at exit. A disabled
// tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished interval and returns its id (-1 when disabled).
func (t *tracer) add(name string, parent int, job string, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Job: job,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// begin opens a span whose children are recorded before it ends; end
// closes it. A disabled tracer returns -1 and ignores end.
func (t *tracer) begin(name string, parent int, job string) int {
	now := time.Now()
	return t.add(name, parent, job, now, now)
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// time runs f inside a span and returns its duration in seconds.
func (t *tracer) time(name string, parent int, job string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, job, start, end)
	return end.Sub(start).Seconds()
}

func (t *tracer) write(path string) error {
	if !t.on {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
