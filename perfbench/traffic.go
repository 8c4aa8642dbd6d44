package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"selfstab/internal/graph"
	"selfstab/internal/service"
)

// trafficSpec is a closed-loop request mix against one SMM tenant.
type trafficSpec struct {
	n int
	// readShare is the fraction of requests that are point reads; the
	// rest are mutations.
	readShare float64
	// reopen kills the service after the stream and times reopening it.
	reopen bool
}

const (
	tenantID = "bench"
	// clients is the number of closed-loop callers (one per core of the
	// 2-core reference machine). Both share the one tenant, so the
	// service's group-commit batches can form.
	clients = 2
	// warmupRequests are sent during set-up, before timing starts.
	warmupRequests = 256
	// recoverRepeats is how many times mixed-16k reopens the killed
	// service; recover_s is the median.
	recoverRepeats = 3
	// requestsPerSecond sizes the fixed-count streams: a run sends
	// requestsPerSecond × --seconds requests, about --seconds of work on
	// the reference machine.
	requestsPerSecond = 1000
)

// mutate-1k: only mutations on a 1024-node tenant, where per-request
// fixed costs dominate.
func mutateWorkload(e *env) *outcome {
	return trafficWorkload(e, trafficSpec{n: 1024, readShare: 0})
}

// mixed-16k: 80% point reads beside 20% mutations on a 16384-node tenant,
// where each mutation's O(n) work holds the tenant lock; then a kill and
// timed reopens.
func mixedWorkload(e *env) *outcome {
	return trafficWorkload(e, trafficSpec{n: 16384, readShare: 0.8, reopen: true})
}

// Request kinds of the traffic streams.
const (
	kindEdge    = iota // add_edge or remove_edge of a flapping pair
	kindCorrupt        // corrupt 1–3 nodes
	kindNode           // GET …/nodes/{v}
	kindStatus         // GET …/{id}
	numKinds
)

// stream generates one client's requests from its own seeded stream; the
// sequence never depends on replies. Edge mutations come in flaps — add a
// non-adjacent pair, later remove it — so the topology stays that of the
// generated graph. Client c flaps only pairs of nodes ≡ c (mod clients),
// so two clients never flap the same pair.
type stream struct {
	rng       *rand.Rand
	g         *graph.Graph
	part      int
	readShare float64
	pending   [2]int
	flapping  bool
}

type request struct {
	kind   int
	method string
	path   string
	body   []byte
	node   int
}

func (s *stream) next() request {
	if s.rng.Float64() < s.readShare {
		v := s.rng.Intn(s.g.N())
		if s.rng.Intn(4) == 0 {
			return request{kind: kindStatus, method: http.MethodGet, path: "/v1/tenants/" + tenantID}
		}
		return request{kind: kindNode, method: http.MethodGet, path: "/v1/tenants/" + tenantID + "/nodes/" + strconv.Itoa(v), node: v}
	}
	if s.flapping {
		s.flapping = false
		return s.edge(service.OpRemoveEdge, s.pending)
	}
	if s.rng.Intn(2) == 0 {
		k := 1 + s.rng.Intn(3)
		nodes := make([]int, 0, k)
		for len(nodes) < k {
			v := s.rng.Intn(s.g.N())
			dup := false
			for _, w := range nodes {
				dup = dup || w == v
			}
			if !dup {
				nodes = append(nodes, v)
			}
		}
		return s.mutation(kindCorrupt, service.Mutation{Op: service.OpCorrupt, Nodes: nodes})
	}
	span := s.g.N() / clients
	for {
		u, v := s.part+clients*s.rng.Intn(span), s.part+clients*s.rng.Intn(span)
		if u != v && !s.g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
			s.pending, s.flapping = [2]int{u, v}, true
			return s.edge(service.OpAddEdge, s.pending)
		}
	}
}

// finish returns the request that removes a pair the stream left added.
func (s *stream) finish() (request, bool) {
	if !s.flapping {
		return request{}, false
	}
	s.flapping = false
	return s.edge(service.OpRemoveEdge, s.pending), true
}

func (s *stream) edge(op string, p [2]int) request {
	u, v := p[0], p[1]
	return s.mutation(kindEdge, service.Mutation{Op: op, U: &u, V: &v})
}

func (s *stream) mutation(kind int, m service.Mutation) request {
	body, err := json.Marshal(m)
	if err != nil {
		panic(err) // a Mutation always encodes
	}
	return request{kind: kind, method: http.MethodPost, path: "/v1/tenants/" + tenantID + "/mutations", body: body}
}

// trafficStats are the merged per-client results of one request stream.
type trafficStats struct {
	lat               [numKinds][]float64 // ms
	attempted, failed int
	problems          []string
	wall              time.Duration
}

// runStream sends count requests from clients closed-loop callers, each
// on its own stream (name, c), and checks every reply.
func runStream(e *env, base string, g *graph.Graph, spec trafficSpec, count int, name string) *trafficStats {
	per := make([]trafficStats, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			cl := newClient(e, base)
			defer cl.closeIdle()
			s := &stream{rng: rngFor(e.seed, name, c), g: g, part: c, readShare: spec.readShare}
			send := func(r request) {
				st.attempted++
				ms, err := sendChecked(cl, r)
				if err != nil {
					st.failed++
					if len(st.problems) < 10 {
						st.problems = append(st.problems, err.Error())
					}
					return
				}
				st.lat[r.kind] = append(st.lat[r.kind], ms)
			}
			for i := c; i < count; i += clients {
				send(s.next())
			}
			if r, ok := s.finish(); ok {
				send(r)
			}
		}(c)
	}
	wg.Wait()
	out := &trafficStats{wall: time.Since(t0)}
	for _, st := range per {
		for k := range st.lat {
			out.lat[k] = append(out.lat[k], st.lat[k]...)
		}
		out.attempted += st.attempted
		out.failed += st.failed
		out.problems = append(out.problems, st.problems...)
	}
	return out
}

// sendChecked sends r and checks its reply: a mutation must come back
// converged and legitimate within the paper's round bound; a read must
// describe what was asked for. It returns the latency in ms.
func sendChecked(cl *client, r request) (float64, error) {
	var took time.Duration
	var err error
	switch r.kind {
	case kindEdge, kindCorrupt:
		var res service.MutationResult
		took, err = cl.do(r.method, r.path, "mutation", r.body, http.StatusOK, &res)
		if err == nil && (!res.Converged || !res.Legit || res.Rounds > res.Bound || res.CheckErr != "" || res.Duplicate) {
			err = fmt.Errorf("mutation %s: reply %+v", r.body, res)
		}
	case kindNode:
		var ni service.NodeInfo
		took, err = cl.do(r.method, r.path, "node", nil, http.StatusOK, &ni)
		if err == nil && ni.Node != r.node {
			err = fmt.Errorf("node read %d answered for node %d", r.node, ni.Node)
		}
	default:
		var st service.TenantStatus
		took, err = cl.do(r.method, r.path, "status", nil, http.StatusOK, &st)
		if err == nil && (st.ID != tenantID || st.Quarantined != "") {
			err = fmt.Errorf("status read: %+v", st)
		}
	}
	return float64(took.Nanoseconds()) / 1e6, err
}

// setupTenant generates the topology, opens a service over a fresh data
// directory, creates the tenant and warms it up; the returned duration is
// the whole set-up.
func setupTenant(e *env, spec trafficSpec) (*server, *graph.Graph, string, time.Duration, error) {
	root := e.tr.begin("bench.setup", 0)
	defer e.tr.end(root)
	t0 := time.Now()
	sp := e.tr.begin("graph.gen", root)
	g := unitDisk(spec.n, e.seed)
	e.tr.end(sp)
	dir, err := os.MkdirTemp(e.work, "data-")
	if err != nil {
		return nil, nil, "", 0, err
	}
	s, _, err := openServer(e, dir, root)
	if err != nil {
		return nil, nil, "", 0, err
	}
	cl := newClient(e, s.base)
	cl.parent = root
	defer cl.closeIdle()
	var st service.TenantStatus
	if _, err := cl.do(http.MethodPost, "/v1/tenants", "create", createBody(tenantID, service.ProtocolSMM, e.seed, g.N(), edgeList(g)), http.StatusCreated, &st); err != nil {
		s.kill()
		return nil, nil, "", 0, err
	}
	if !st.Converged || !st.Legit {
		s.kill()
		return nil, nil, "", 0, fmt.Errorf("created tenant not legitimate: %+v", st)
	}
	warm := runStream(e, s.base, g, spec, warmupRequests, "warmup")
	if warm.failed > 0 {
		s.kill()
		return nil, nil, "", 0, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.problems)
	}
	return s, g, dir, time.Since(t0), nil
}

func trafficWorkload(e *env, spec trafficSpec) *outcome {
	o := newOutcome()
	var s *server
	var g *graph.Graph
	var dir string
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				o.fail("close set-up service: %v", err)
			}
		}
		var took time.Duration
		var err error
		s, g, dir, took, err = setupTenant(e, spec)
		if err != nil {
			o.fail("set-up: %v", err)
			o.attempted = 1
			o.failed = 1
			return o
		}
		setups = append(setups, took.Seconds())
	}
	o.g = g
	cl := newClient(e, s.base)
	defer cl.closeIdle()
	before, err1 := cl.varz()
	stBefore, err2 := cl.status(tenantID)
	if err1 != nil || err2 != nil {
		o.fail("read counters before the stream: %v %v", err1, err2)
	}

	count := requestsPerSecond * e.seconds
	ts := runStream(e, s.base, g, spec, count, "timed")
	o.attempted, o.failed = ts.attempted, ts.failed
	for _, p := range ts.problems {
		o.fail("%s", p)
	}

	after, err1 := cl.varz()
	st, err2 := cl.status(tenantID)
	if err1 != nil || err2 != nil {
		o.fail("read counters after the stream: %v %v", err1, err2)
	}
	if !st.Converged || !st.Legit || st.EpochsOverBound != 0 || st.Quarantined != "" {
		o.fail("final status: %+v", st)
	}
	raw, err := cl.snapshot(tenantID)
	if err == nil {
		err = checkSnapshot(e, raw, g, 0)
	}
	if err != nil {
		o.fail("final snapshot: %v", err)
	}
	mutations := after.Mutations - before.Mutations
	journalLayer(o.layer, before, after, tenantID, mutations)
	if mutations > 0 {
		o.layer["service.moves_per_mutation"] = float64(st.Moves-stBefore.Moves) / float64(mutations)
	}
	o.layer["service.epoch_rounds_max"] = float64(st.MaxEpochRounds)
	o.layer["service.epochs_over_bound"] = float64(st.EpochsOverBound)
	if st.Seq > 0 {
		o.layer["service.data_bytes_per_mutation"] = float64(dirBytes(dir)) / float64(st.Seq)
	}

	var recovers []float64
	if spec.reopen {
		s.kill()
		for k := 0; k < recoverRepeats; k++ {
			s2, took, err := openServer(e, dir, 0)
			if err != nil {
				o.fail("reopen %d: %v", k, err)
				break
			}
			recovers = append(recovers, took.Seconds())
			c2 := newClient(e, s2.base)
			raw2, err := c2.snapshot(tenantID)
			c2.closeIdle()
			s2.kill()
			if err != nil {
				o.fail("snapshot after reopen %d: %v", k, err)
			} else if !bytes.Equal(raw, raw2) {
				o.fail("snapshot after reopen %d differs from the one before the kill", k)
			}
		}
		o.layer["service.recover_ms"] = median(recovers) * 1e3
	} else if err := s.close(); err != nil {
		o.fail("close service: %v", err)
	}
	if ms := e.tr.durations("service.open"); len(ms) > 0 {
		o.layer["service.open_ms"] = median(ms[:min(len(ms), setupRepeats)])
	}
	if ms := e.tr.durations("service.route.create"); len(ms) > 0 {
		o.layer["service.create_ms"] = median(ms)
	}

	mut := append(append([]float64(nil), ts.lat[kindEdge]...), ts.lat[kindCorrupt]...)
	reads := append(append([]float64(nil), ts.lat[kindNode]...), ts.lat[kindStatus]...)
	o.e2e["setup_s"] = median(setups)
	if spec.readShare > 0 {
		o.e2e["main_p50_ms"] = median(mut)
		o.e2e["second_p50_ms"] = median(reads)
	} else {
		o.e2e["main_p50_ms"] = median(ts.lat[kindEdge])
		o.e2e["second_p50_ms"] = median(ts.lat[kindCorrupt])
	}
	ok := ts.attempted - ts.failed
	o.e2e["ops_per_s"] = float64(ok) / ts.wall.Seconds()
	o.e2e["peak_rss_mb"] = peakRSSMB()

	o.note("graph: n=%d m=%d (unit disk); %d clients, closed loop", g.N(), g.M(), clients)
	o.note("setup_s = %.4f s (median of %d)", median(setups), len(setups))
	reportLatency(o, "mutation", mut)
	reportLatency(o, "edge_mutation", ts.lat[kindEdge])
	reportLatency(o, "corrupt_mutation", ts.lat[kindCorrupt])
	if spec.readShare > 0 {
		reportLatency(o, "read", reads)
	}
	o.note("ops_per_s = %.1f (%d ok requests in %.3f s)", o.e2e["ops_per_s"], ok, ts.wall.Seconds())
	if spec.reopen {
		o.note("recover_s = %.4f s (median of %d reopens)", median(recovers), len(recovers))
	}
	o.note("error_rate = %g (%d of %d); varz: rate_limited %d, overloaded %d, accepted_async %d, panics %d, quarantined %d",
		float64(ts.failed)/float64(max(ts.attempted, 1)), ts.failed, ts.attempted,
		after.RateLimited-before.RateLimited, after.Overloaded-before.Overloaded,
		after.Accepted-before.Accepted, after.Panics-before.Panics, after.Quarantined)
	return o
}

// reportLatency notes the median and the highest percentile with at
// least ten samples beyond it.
func reportLatency(o *outcome, name string, ms []float64) {
	p, v := tail(ms)
	o.note("%s_p50_ms = %.4f, %s_p%g_ms = %.4f (n=%d)", name, median(ms), name, p, v, len(ms))
}
