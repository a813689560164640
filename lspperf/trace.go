package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer: its name, its interval relative to
// the tracer's origin, the span that caused it (0 for none) and the run it
// belongs to.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code calls it unconditionally. Not safe for
// concurrent use: every span is opened and closed on the benchmark's own
// goroutine, around a call into the program.
type Tracer struct {
	run    string
	origin time.Time
	spans  []Span
}

// NewTracer starts an empty trace for the named run.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, origin: time.Now()}
}

// Start opens a span under parent and returns its id (0 on a nil tracer).
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
}

// Span returns span id.
func (t *Tracer) Span(id int) Span { return t.spans[id-1] }

// Children returns the spans whose parent is id.
func (t *Tracer) Children(id int) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// Self is span id's self time: its length minus the part of it that its
// child spans cover.
func (t *Tracer) Self(id int) time.Duration {
	return selfTime(t.Span(id), t.Children(id))
}

// WriteFile writes every span as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTime subtracts from parent's length the union of the children's
// intervals clipped to the parent, so that overlapping children and a
// child nested in another are counted once.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(parent.End - parent.Start - covered)
}
