package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the benchmark's own spans around every call it makes
// into a layer. Spans are kept in memory and written out when the run
// ends. Spans named after a program-side boundary the benchmark cannot
// wrap (the server's part of a wire query, the executor's part of a
// query, the log's fsync within a commit) are derived from counter and
// histogram deltas taken around the call, and placed at their parent's
// start. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one operation share Op; Parent is the
// enclosing span's ID (0 for an operation's root).
type span struct {
	Op     int64   `json:"op"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the run started
	Dur    float64 `json:"dur_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates an operation identifier.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// id allocates a span identifier, so a root can be recorded after its
// children.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a span under a preallocated id.
func (t *tracer) record(op, id, parent int64, name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: us(start.Sub(t.t0)), Dur: us(dur)})
	t.mu.Unlock()
}

// add records a span and returns its id.
func (t *tracer) add(op, parent int64, name string, start time.Time, dur time.Duration) int64 {
	id := t.id()
	t.record(op, id, parent, name, start, dur)
	return id
}

// selfMS returns, per span name, the summed self time in milliseconds: a
// span's duration minus the durations of its direct children.
func (t *tracer) selfMS() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make(map[int64]string, len(t.spans))
	for _, s := range t.spans {
		names[s.ID] = s.Name
	}
	for _, s := range t.spans {
		out[s.Name] += s.Dur / 1000
		if s.Parent != 0 {
			out[names[s.Parent]] -= s.Dur / 1000
		}
	}
	return out
}

// write stores the spans as JSON lines, ordered by start, at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
