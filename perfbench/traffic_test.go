package main

import (
	"encoding/json"
	"testing"
)

func TestStreamKeepsTopologyAndSplitsPairs(t *testing.T) {
	g := unitDisk(256, 7)
	seen := map[[2]int]int{}
	for c := 0; c < clients; c++ {
		s := &stream{rng: rngFor(7, "test", c), g: g, part: c}
		added := map[[2]int]bool{}
		apply := func(r request) {
			if r.kind != kindEdge {
				return
			}
			var m struct {
				Op   string `json:"op"`
				U, V int
			}
			mustUnmarshal(t, r.body, &m)
			p := [2]int{m.U, m.V}
			if m.U%clients != c || m.V%clients != c {
				t.Fatalf("client %d flapped pair %v outside its partition", c, p)
			}
			added[p] = m.Op == "add_edge"
			seen[p] |= 1 << c
		}
		for i := 0; i < 500; i++ {
			apply(s.next())
		}
		if r, ok := s.finish(); ok {
			apply(r)
		}
		for p, on := range added {
			if on {
				t.Fatalf("client %d left pair %v added", c, p)
			}
		}
	}
	for p, who := range seen {
		if who != 1 && who != 2 {
			t.Fatalf("pair %v flapped by both clients", p)
		}
	}
}

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}
