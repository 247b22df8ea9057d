package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval at a layer boundary. Name's first
// dot-separated component is the layer ("spanner.build" belongs to
// spanner); Trace is shared by every span of one request (or by the
// run's own set-up and build spans).
type Span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer, or
// one switched off, records nothing.
type Tracer struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer {
	t := &Tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// setOn switches recording on or off.
func (t *Tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// NewID allocates a span or trace id (ids start at 1; 0 means none).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Open is a span that has started and not yet ended.
type Open struct {
	t     *Tracer
	span  Span
	start time.Time
}

// Begin starts a span under parent (0 for a root) in trace.
func (t *Tracer) Begin(name string, trace, parent uint64) *Open {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &Open{t: t, start: time.Now(), span: Span{Name: name, Trace: trace, ID: t.NewID(), Parent: parent}}
}

// Child starts a span under o, in o's trace.
func (o *Open) Child(name string) *Open {
	if o == nil {
		return nil
	}
	return o.t.Begin(name, o.span.Trace, o.span.ID)
}

// ID is the span's id, for its children (0 when not recording).
func (o *Open) ID() uint64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// End records the span.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.t.Record(o.span.Name, o.span.Trace, o.span.ID, o.span.Parent, o.start, time.Now())
}

// Record stores a finished span measured by the caller.
func (t *Tracer) Record(name string, trace, id, parent uint64, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := Span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// Layer is the layer a span name belongs to.
func Layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// SelfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[Layer(s.Name)] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}
