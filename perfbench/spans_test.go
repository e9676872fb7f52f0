package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Self time subtracts the union of the children's intervals, clipped to
// the parent, and nothing a grandchild covers twice.
func TestSelfTimesFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "mine.corpus", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "trace.parse", Start: ms(40), End: ms(70)}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "inner", Start: ms(20), End: ms(30)},
		{ID: 5, Parent: 1, Name: "trace.parse", Start: ms(90), End: ms(120)}, // runs past the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(30), 2: ms(30), 3: ms(30), 4: ms(10), 5: ms(30)} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
	total, byName := layerTimes(spans)
	if total["trace.parse"] != ms(60) || byName["trace.parse"] != ms(60) {
		t.Errorf("trace.parse total %v self %v, want 60ms each", total["trace.parse"], byName["trace.parse"])
	}
	if byName["op"] != ms(30) {
		t.Errorf("op self = %v, want 30ms", byName["op"])
	}
}

func TestTracerRecordsAndWritesSpans(t *testing.T) {
	var none *tracer
	none.start("x", 0, 0).end() // a nil tracer records nothing
	if none.snapshot() != nil {
		t.Error("nil tracer returned spans")
	}

	tr := newTracer()
	root := tr.start("op", 7, 0)
	child := tr.start("core.select", 7, root.id)
	open := tr.start("never.closed", 7, root.id)
	child.end()
	root.end()
	_ = open
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != 7 || got[1].Name != "core.select" {
		t.Fatalf("spans = %+v", got)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := writeSpans(path, got); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil || s.Name != "core.select" || s.End < s.Start {
		t.Errorf("line %q decodes to %+v (%v)", lines[1], s, err)
	}
}
