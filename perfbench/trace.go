package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// layers are the span-name prefixes self time is reported for: the
// benchmark's own code, then each module it calls into directly. (The
// core kernels and the fault overlay run inside sim and service calls;
// the layer probes time them.)
var layers = []string{"bench", "graph", "sim", "verify", "service", "http"}

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the id of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	// In and Out are the request and response body bytes of HTTP spans.
	In  int64 `json:"in,omitempty"`
	Out int64 `json:"out,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextReq int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. A root span (parent 0) starts a
// new request id; a child inherits its parent's.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	req := 0
	if parent > 0 && parent <= len(t.spans) {
		req = t.spans[parent-1].Req
	} else {
		t.nextReq++
		req = t.nextReq
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.endBytes(id, 0, 0) }

// endBytes closes span id and records its body sizes.
func (t *tracer) endBytes(id int, in, out int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.In, s.Out = now, in, out
}

// durations returns the durations in ms of the closed spans named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return ds
}

// summarize adds the trace-derived per-layer metrics to m: self time per
// layer, and per HTTP route the server-side handler time, the transport
// time (client span minus its handler child) and the body sizes.
func (t *tracer) summarize(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		m["self_ms."+layer] += float64(self[i]) / 1e6
	}

	handler := make(map[int]int64) // client span id → its handler's duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "service.route.") && s.Parent > 0 {
			handler[s.Parent] += s.End - s.Start
		}
	}
	type acc struct {
		handler, transport []float64
		in, out            int64
		n                  int64
	}
	per := map[string]*acc{}
	for _, s := range t.spans {
		route, ok := strings.CutPrefix(s.Name, "http.")
		if !ok || s.End == 0 {
			continue
		}
		a := per[route]
		if a == nil {
			a = &acc{}
			per[route] = a
		}
		h := handler[s.ID]
		a.handler = append(a.handler, float64(h)/1e6)
		a.transport = append(a.transport, float64(s.End-s.Start-h)/1e6)
		a.in += s.In
		a.out += s.Out
		a.n++
	}
	for route, a := range per {
		m["http.handler_ms."+route] = median(a.handler)
		m["http.transport_ms."+route] = median(a.transport)
		m["http.req_bytes."+route] = float64(a.in) / float64(a.n)
		m["http.resp_bytes."+route] = float64(a.out) / float64(a.n)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children's intervals cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		kids := children[s.ID]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			c := spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if c.End > 0 && hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			if j == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
