package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "engine.census", Start: 0, End: 100},
		// Two children overlapping each other: 10..40 ∪ 30..50 covers 40.
		{ID: 2, Parent: 1, Name: "store.save", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "store.load", Start: 30, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "view.refine", Start: 90, End: 120},
		{ID: 5, Name: "corpus.build", Start: 200, End: 260},
		// A span never closed is skipped.
		{ID: 6, Name: "corpus.build", Start: 300},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"engine": 100 - 40 - 10, "store": 30 + 20, "view": 30, "corpus": 60}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, got[layer], d)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},
		{[][2]int64{{6, 8}, {2, 7}}, 0, 10, 6},
		{[][2]int64{{0, 5}, {1, 2}, {4, 12}}, 3, 10, 7},
		{[][2]int64{{0, 3}, {3, 6}}, 0, 10, 6},
	} {
		if got := covered(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin("x.y", 0, 1); id != 0 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(0)

	tr := newTracer()
	root := tr.begin("census.cold", 0, 7)
	child := tr.begin("corpus.build", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].layer() != "corpus" {
		t.Errorf("layer = %q", spans[1].layer())
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 || back[0].Name != "census.cold" {
		t.Fatalf("written spans %s: %v", data, err)
	}
}
