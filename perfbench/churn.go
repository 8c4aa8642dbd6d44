package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"selfstab/internal/graph"
	"selfstab/internal/service"
)

// churn-64k: one client creates and deletes 65536-node unit-disk tenants,
// SMM and SMI alternating. Each create decodes a 4–5 MB body, stabilizes
// the whole tenant on the fault-capable executor and writes the first
// checkpoint; the mutation pipeline and group commit are bypassed.
const (
	churnN = 1 << 16
	// churnPairsPerSecond sizes the fixed-count stream of create+delete
	// pairs from --seconds.
	churnPairsPerSecond = 4
	// createWait bounds how long a create may take to report converged
	// and legitimate.
	createWait = time.Minute
)

// churnPair creates tenant id, waits until it reports converged and
// legitimate, checks its snapshot with the oracle, and deletes it. It
// returns the create and delete latencies.
func churnPair(e *env, cl *client, edges []byte, g *graph.Graph, id, protocol string) (create, del time.Duration, err error) {
	root := e.tr.begin("bench.pair."+protocol, 0)
	defer e.tr.end(root)
	cl.parent = root
	defer func() { cl.parent = 0 }()
	req := createBody(id, protocol, e.seed, g.N(), edges)
	// Collect the client side's garbage (the previous snapshot check)
	// first, so the create pays only for its own allocations.
	runtime.GC()
	t0 := time.Now()
	var st service.TenantStatus
	if _, err := cl.do(http.MethodPost, "/v1/tenants", "create", req, http.StatusCreated, &st); err != nil {
		return 0, 0, err
	}
	for !st.Converged || !st.Legit {
		if time.Since(t0) > createWait || st.Quarantined != "" || st.CheckError != "" {
			return 0, 0, fmt.Errorf("tenant %s not legitimate: %+v", id, st)
		}
		if st, err = cl.status(id); err != nil {
			return 0, 0, err
		}
	}
	create = time.Since(t0)
	if st.EpochsOverBound != 0 || st.LastEpochRounds > st.Bound {
		return 0, 0, fmt.Errorf("tenant %s: init epoch of %d rounds, bound %d", id, st.LastEpochRounds, st.Bound)
	}
	raw, err := cl.snapshot(id)
	if err == nil {
		err = checkSnapshot(e, raw, g, root)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("tenant %s snapshot: %w", id, err)
	}
	del, err = cl.do(http.MethodDelete, "/v1/tenants/"+id, "delete", nil, http.StatusNoContent, nil)
	return create, del, err
}

func churnWorkload(e *env) *outcome {
	o := newOutcome()
	protocols := [2]string{service.ProtocolSMM, service.ProtocolSMI}
	var s *server
	var g *graph.Graph
	var edges []byte
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				o.fail("close set-up service: %v", err)
			}
		}
		root := e.tr.begin("bench.setup", 0)
		t0 := time.Now()
		sp := e.tr.begin("graph.gen", root)
		g = unitDisk(churnN, e.seed)
		e.tr.end(sp)
		edges = edgeList(g)
		dir, err := os.MkdirTemp(e.work, "data-")
		if err == nil {
			s, _, err = openServer(e, dir, root)
		}
		if err == nil {
			cl := newClient(e, s.base)
			for _, p := range protocols {
				if _, _, err = churnPair(e, cl, edges, g, "warmup-"+p, p); err != nil {
					break
				}
			}
			cl.closeIdle()
		}
		e.tr.end(root)
		if err != nil {
			o.fail("set-up: %v", err)
			o.attempted, o.failed = 1, 1
			if s != nil {
				s.kill()
			}
			return o
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.g = g

	cl := newClient(e, s.base)
	defer cl.closeIdle()
	before, err := cl.varz()
	if err != nil {
		o.fail("varz: %v", err)
	}
	pairs := int(churnPairsPerSecond*float64(e.seconds)+0.5) &^ 1
	var creates [2][]float64
	var deletes []float64
	var busy time.Duration
	for i := 0; i < pairs; i++ {
		p := i % 2
		o.attempted++
		c, d, err := churnPair(e, cl, edges, g, fmt.Sprintf("churn-%d", i), protocols[p])
		if err != nil {
			o.failed++
			o.fail("pair %d (%s): %v", i, protocols[p], err)
			continue
		}
		creates[p] = append(creates[p], float64(c.Nanoseconds())/1e6)
		deletes = append(deletes, float64(d.Nanoseconds())/1e6)
		busy += c + d
	}
	after, err := cl.varz()
	if err != nil {
		o.fail("varz: %v", err)
	}
	if n := after.Panics - before.Panics + after.RateLimited - before.RateLimited + after.Overloaded - before.Overloaded; n != 0 || after.Tenants != 0 {
		o.fail("varz after churn: %+v", after)
	}
	if err := s.close(); err != nil {
		o.fail("close service: %v", err)
	}
	journalLayer(o.layer, before, after, "", 0)
	if ms := e.tr.durations("service.open"); len(ms) > 0 {
		o.layer["service.open_ms"] = median(ms)
	}
	if ms := e.tr.durations("service.route.create"); len(ms) > 0 {
		o.layer["service.create_ms"] = median(ms)
	}
	if ms := e.tr.durations("service.route.delete"); len(ms) > 0 {
		o.layer["service.delete_ms"] = median(ms)
	}

	ok := o.attempted - o.failed
	o.e2e["setup_s"] = median(setups)
	o.e2e["main_p50_ms"] = median(creates[0])
	o.e2e["second_p50_ms"] = median(creates[1])
	o.e2e["ops_per_s"] = float64(ok) / busy.Seconds()
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.note("graph: n=%d m=%d (unit disk); 1 client, closed loop", g.N(), g.M())
	o.note("setup_s = %.4f s (median of %d)", median(setups), len(setups))
	o.note("smm_create_p50_ms = %.3f (n=%d)", median(creates[0]), len(creates[0]))
	o.note("smi_create_p50_ms = %.3f (n=%d)", median(creates[1]), len(creates[1]))
	o.note("delete_p50_ms = %.3f (n=%d)", median(deletes), len(deletes))
	o.note("ops_per_s = %.4f create+delete pairs/s (%d pairs in %.3f s of create+delete time)", o.e2e["ops_per_s"], ok, busy.Seconds())
	o.note("error_rate = %g (%d of %d pairs); varz: rate_limited %d, overloaded %d, panics %d",
		float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted,
		after.RateLimited-before.RateLimited, after.Overloaded-before.Overloaded, after.Panics-before.Panics)
	return o
}
