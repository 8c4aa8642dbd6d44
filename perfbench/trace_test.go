package main

import (
	"slices"
	"testing"
)

func TestSelfTimesSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third covers [60, 70).
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		{ID: 4, Parent: 1, Start: 60, End: 70},
		// A grandchild only reduces its own parent's self time.
		{ID: 5, Parent: 4, Start: 62, End: 65},
		// A child outliving its parent counts only inside the parent.
		{ID: 6, Start: 200, End: 210},
		{ID: 7, Parent: 6, Start: 205, End: 230},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30, 20, 10 - 3, 3, 10 - 5, 25}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if id != 0 || tr.durations("x") != nil {
		t.Fatalf("nil tracer recorded a span")
	}
}
