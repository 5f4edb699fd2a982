package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced call: its layer (module), what was called, the
// span that caused it (-1 for a root) and its interval.
type span struct {
	Layer  string    `json:"layer"`
	Name   string    `json:"name"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps the spans of a traced run in memory. A nil *tracer
// records nothing, so untraced code paths pass nil.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// open starts a span now and returns its id.
func (t *tracer) open(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	return t.add(parent, layer, name, time.Now(), time.Time{})
}

// close ends span id now.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known, such as one
// rebuilt from a duration a callee reported.
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// selfTime returns each layer's self time in seconds: the duration of
// its spans minus the durations of their direct children.
func (t *tracer) selfTime() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]float64{}
	for _, s := range t.spans {
		d := s.End.Sub(s.Start).Seconds()
		self[s.Layer] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Layer] -= d
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
