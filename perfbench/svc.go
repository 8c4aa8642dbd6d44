package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/service"
	"selfstab/internal/verify"
)

// routes are the HTTP routes the workloads call, as named in span and
// metric names.
var routes = []string{"mutation", "node", "status", "snapshot", "create", "delete"}

// spanHeader carries the client span id to the server-side wrapper, which
// parents its span under it.
const spanHeader = "X-Perfbench-Span"

// serviceOptions are selfstabd's defaults plus one deployment setting: a
// per-tenant rate limit far above the offered load, so the token bucket
// never refuses a request.
func serviceOptions(dir string) service.Options {
	return service.Options{DataDir: dir, RatePerSec: 1e6, Burst: 1 << 20}
}

// server is one in-process selfstabd behind a loopback listener.
type server struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan struct{}
}

// openServer opens a service over dir and serves its Handler on a
// loopback port. It returns the time service.Open took.
func openServer(e *env, dir string, parent int) (*server, time.Duration, error) {
	sp := e.tr.begin("service.open", parent)
	t0 := time.Now()
	svc, err := service.Open(serviceOptions(dir))
	took := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("open service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Kill()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: traceHandler(e.tr, svc.Handler())},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, took, nil
}

// stopHTTP closes the listener and every connection and waits for Serve
// to return.
func (s *server) stopHTTP() {
	s.srv.Close()
	<-s.done
}

// close shuts the service down gracefully (final checkpoints).
func (s *server) close() error {
	s.stopHTTP()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.svc.Close(ctx)
}

// kill is the crash path: nothing is flushed.
func (s *server) kill() {
	s.stopHTTP()
	s.svc.Kill()
}

// traceHandler wraps h with a server-side span per request, parented
// under the client span named in spanHeader. Untraced runs serve h as is.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		sp := tr.begin("service.route."+routeOf(r), parent)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// routeOf names the route of a request the workloads send.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/tenants":
		return "create"
	case r.Method == http.MethodDelete:
		return "delete"
	case strings.HasSuffix(p, "/mutations"):
		return "mutation"
	case strings.HasSuffix(p, "/snapshot"):
		return "snapshot"
	case strings.Contains(p, "/nodes/"):
		return "node"
	case strings.HasPrefix(p, "/v1/tenants/"):
		return "status"
	default:
		return "other"
	}
}

// client is one closed-loop caller: it sends a request only after the
// previous reply has been read.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	// parent is the span the client's request spans are parented under;
	// 0 makes each request a root.
	parent int
}

func newClient(e *env, base string) *client {
	return &client{
		hc:   &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base: base,
		tr:   e.tr,
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. The returned duration
// runs from send to the last body byte. A reply with status want is
// decoded into out (when non-nil); any other status is an error.
func (c *client) do(method, path, route string, body []byte, want int, out any) (time.Duration, error) {
	sp := c.tr.begin("http."+route, c.parent)
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.tr.end(sp)
		return 0, err
	}
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t0)
	c.tr.endBytes(sp, int64(len(body)), int64(len(raw)))
	if err != nil {
		return took, err
	}
	if resp.StatusCode != want {
		return took, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return took, fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return took, nil
}

func (c *client) status(id string) (service.TenantStatus, error) {
	var st service.TenantStatus
	_, err := c.do(http.MethodGet, "/v1/tenants/"+id, "status", nil, http.StatusOK, &st)
	return st, err
}

// snapshot returns the raw snapshot reply of tenant id.
func (c *client) snapshot(id string) ([]byte, error) {
	var raw json.RawMessage
	_, err := c.do(http.MethodGet, "/v1/tenants/"+id+"/snapshot", "snapshot", nil, http.StatusOK, &raw)
	return raw, err
}

func (c *client) varz() (service.Vars, error) {
	var v service.Vars
	_, err := c.do(http.MethodGet, "/varz", "varz", nil, http.StatusOK, &v)
	return v, err
}

// edgeList encodes g's edges as the JSON [[u, v], …] a create request
// carries.
func edgeList(g *graph.Graph) []byte {
	edges := make([][2]int, 0, g.M())
	for _, ed := range g.Edges() {
		edges = append(edges, [2]int{int(ed.U), int(ed.V)})
	}
	raw, err := json.Marshal(edges)
	if err != nil {
		panic(err) // ints always encode
	}
	return raw
}

// createBody encodes a tenant-create request over an edgeList.
func createBody(id, protocol string, seed int64, n int, edges []byte) []byte {
	return fmt.Appendf(nil, `{"id":%q,"protocol":%q,"n":%d,"seed":%d,"edges":%s}`, id, protocol, n, seed, edges)
}

// checkSnapshot is the output oracle for a service tenant: the snapshot's
// topology must equal g, and its states, rebuilt outside the service, must
// be a fixed point whose matching (SMM) or set (SMI) passes verify.
func checkSnapshot(e *env, raw []byte, g *graph.Graph, parent int) error {
	sp := e.tr.begin("verify.snapshot", parent)
	defer e.tr.end(sp)
	var snap service.SnapshotView
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	if !snap.Converged {
		return errors.New("snapshot not converged")
	}
	if snap.EpochsOverBound != 0 {
		return fmt.Errorf("snapshot reports %d epochs over the bound", snap.EpochsOverBound)
	}
	edges := g.Edges()
	if len(snap.Edges) != len(edges) {
		return fmt.Errorf("snapshot has %d edges, the workload's topology %d", len(snap.Edges), len(edges))
	}
	for i, ed := range edges {
		if snap.Edges[i] != [2]int{int(ed.U), int(ed.V)} {
			return fmt.Errorf("snapshot edge %d is %v, want %v", i, snap.Edges[i], ed)
		}
	}
	switch snap.Protocol {
	case service.ProtocolSMM:
		var ptrs []int32
		if err := json.Unmarshal(snap.States, &ptrs); err != nil || len(ptrs) != g.N() {
			return fmt.Errorf("snapshot states: %d values, err %v", len(ptrs), err)
		}
		cfg := core.NewConfig[core.Pointer](g)
		for v, p := range ptrs {
			if p != int32(core.Null) && (p < 0 || int(p) >= g.N()) {
				return fmt.Errorf("node %d points out of range: %d", v, p)
			}
			cfg.States[v] = core.Pointer(p)
		}
		if err := core.ValidSMMConfig(cfg); err != nil {
			return err
		}
		if priv := cfg.PrivilegedNodes(core.NewSMM()); len(priv) > 0 {
			return fmt.Errorf("%d SMM nodes still privileged", len(priv))
		}
		return verify.IsMaximalMatching(g, core.MatchingOf(cfg))
	case service.ProtocolSMI:
		cfg := core.NewConfig[bool](g)
		if err := json.Unmarshal(snap.States, &cfg.States); err != nil || len(cfg.States) != g.N() {
			return fmt.Errorf("snapshot states: %d values, err %v", len(cfg.States), err)
		}
		if priv := cfg.PrivilegedNodes(core.NewSMI()); len(priv) > 0 {
			return fmt.Errorf("%d SMI nodes still privileged", len(priv))
		}
		return verify.IsMaximalIndependentSet(g, core.SetOf(cfg))
	default:
		return fmt.Errorf("snapshot protocol %q", snap.Protocol)
	}
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// journalLayer adds the service's journal and admission counters to m:
// deltas of after over before for tenant id, over mutations mutations.
func journalLayer(m map[string]float64, before, after service.Vars, id string, mutations int64) {
	jb, ja := before.Journal[id], after.Journal[id]
	appends := ja.Appends - jb.Appends
	batches := ja.Batches - jb.Batches
	if mutations > 0 {
		m["service.fsyncs_per_mutation"] = float64(ja.Fsyncs-jb.Fsyncs) / float64(mutations)
	}
	if batches > 0 {
		m["service.mean_batch"] = float64(appends) / float64(batches)
	}
	for i, b := range batchBuckets {
		m["service.batch_hist_"+b] = float64(ja.BatchSizes[i] - jb.BatchSizes[i])
	}
	m["service.segments"] = float64(ja.Segments)
	m["service.replay_suffix_bytes"] = float64(ja.ReplaySuffixBytes)
	m["service.rate_limited"] = float64(after.RateLimited - before.RateLimited)
	m["service.overloaded"] = float64(after.Overloaded - before.Overloaded)
	m["service.panics"] = float64(after.Panics - before.Panics)
}
