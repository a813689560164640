package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func span(start, end int64) Span { return Span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := span(0, 100)
	for _, c := range []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{span(10, 20), span(50, 70)}, 70},
		{"overlapping", []Span{span(10, 40), span(30, 60)}, 50},
		{"nested", []Span{span(10, 60), span(20, 30)}, 50},
		{"identical", []Span{span(10, 60), span(10, 60)}, 50},
		{"touching", []Span{span(10, 20), span(20, 30)}, 80},
		{"unordered", []Span{span(50, 70), span(10, 20), span(15, 55)}, 40},
		{"clipped to the parent", []Span{span(-20, 10), span(90, 130)}, 80},
		{"outside the parent", []Span{span(-30, -10), span(100, 120)}, 100},
		{"covering the parent", []Span{span(-5, 105)}, 0},
		{"empty child", []Span{span(40, 40)}, 100},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want) {
			t.Errorf("%s: self time %v, want %v", c.name, got, time.Duration(c.want))
		}
	}
}

func TestTracerSpansAndSelf(t *testing.T) {
	tr := NewTracer("run-1")
	root := tr.Start("root", 0)
	a := tr.Start("a", root)
	time.Sleep(2 * time.Millisecond)
	tr.End(a)
	b := tr.Start("b", root)
	inner := tr.Start("inner", b) // a grandchild is covered by b already
	time.Sleep(2 * time.Millisecond)
	tr.End(inner)
	tr.End(b)
	tr.End(root)

	if got := len(tr.Children(root)); got != 2 {
		t.Fatalf("root has %d children, want 2", got)
	}
	covered := tr.Span(a).Dur() + tr.Span(b).Dur()
	if got, want := tr.Self(root), tr.Span(root).Dur()-covered; got != want {
		t.Errorf("root self %v, want %v", got, want)
	}
	if tr.Self(root) < 0 || tr.Self(b) > tr.Span(b).Dur() {
		t.Errorf("self times out of range: root %v, b %v of %v", tr.Self(root), tr.Self(b), tr.Span(b).Dur())
	}
	for _, s := range tr.spans {
		if s.Run != "run-1" || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back[inner-1].Parent != b || back[inner-1].Name != "inner" {
		t.Errorf("span file round trip: %+v", back)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Start("x", 0)
	tr.End(id)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}
