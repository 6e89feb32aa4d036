package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans stay in memory until the run ends; a nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: root
	Name   string `json:"name"`
	// Op identifies the sweep, regeneration or point the span belongs to.
	Op    string `json:"op,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer was created
	End   int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name, op string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open starts a span whose children are recorded before it ends; finish
// closes it.
func (t *tracer) open(name, op string, parent int) int {
	now := time.Now()
	return t.record(name, op, parent, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
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

// printSelf prints the self-time table, largest first.
func (t *tracer) printSelf(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# span self time (%d spans)\n", len(t.spans))
	for _, n := range names {
		fmt.Fprintf(w, "#   %-22s %12.3f ms\n", n, ms(self[n]))
	}
}
