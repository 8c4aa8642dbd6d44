package main

import (
	"runtime"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
	"selfstab/internal/verify"
)

// converge-1m: the library path. SMM and SMI stabilize a 1M-node sparse
// graph (average degree 8) from seeded arbitrary states through
// sim.NewLockstep + Run. No service, fault overlay or journal is
// involved, so this isolates the core kernels and the sim executor.
const (
	convergeN   = 1 << 20
	convergeDeg = 8
)

func convergeWorkload(e *env) *outcome {
	o := newOutcome()
	var g *graph.Graph
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		g = nil
		runtime.GC()
		root := e.tr.begin("bench.setup", 0)
		t0 := time.Now()
		sp := e.tr.begin("graph.gen", root)
		g = graph.RandomSparseConnected(convergeN, convergeDeg, rngFor(e.seed, "graph", 0))
		e.tr.end(sp)
		// The CSR snapshot is cached on the graph and shared by every
		// trial, so building it is set-up work.
		sp = e.tr.begin("graph.csr", root)
		g.Snapshot()
		e.tr.end(sp)
		setups = append(setups, time.Since(t0).Seconds())
		e.tr.end(root)
	}
	o.g = g

	// Trial counts scale with --seconds: an SMM trial takes about 2 s
	// here, an SMI trial about 0.15 s with a wider spread. The reference
	// machine's speed itself drifts by 10–20% between trials, which the
	// medians absorb.
	smmTrials := max(3, 2*e.seconds/3) | 1
	smiTrials := max(5, 2*e.seconds) | 1
	smm, smi := core.NewSMM(), core.NewSMI()
	smmCheck := func(cfg core.Config[core.Pointer]) error {
		return verify.IsMaximalMatching(cfg.G, core.MatchingOf(cfg))
	}
	smiCheck := func(cfg core.Config[bool]) error {
		return verify.IsMaximalIndependentSet(cfg.G, core.SetOf(cfg))
	}
	// One untimed warm-up trial faults in the executor's buffers.
	stabilize(e, o, g, smm, "smm", 0, g.N()+1, smmCheck)
	o.counts = nil
	// SMI trials are interleaved with SMM trials so that both medians
	// sample the same stretch of the run.
	var smmMs, smiMs []float64
	for i := 1; i <= smiTrials; i++ {
		if i <= smmTrials {
			smmMs = append(smmMs, stabilize(e, o, g, smm, "smm", i, g.N()+1, smmCheck))
		}
		smiMs = append(smiMs, stabilize(e, o, g, smi, "smi", i, 2*g.N()+2, smiCheck))
	}
	o.attempted = smmTrials + smiTrials
	o.e2e["setup_s"] = median(setups)
	o.e2e["main_p50_ms"] = median(smmMs)
	o.e2e["second_p50_ms"] = median(smiMs)
	o.e2e["ops_per_s"] = float64(o.attempted) / (sum(smmMs) + sum(smiMs)) * 1e3
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.note("graph: n=%d m=%d", g.N(), g.M())
	o.note("smm_stabilize_s = %.4f s (median of %d trials)", median(smmMs)/1e3, len(smmMs))
	o.note("smi_stabilize_s = %.4f s (median of %d trials)", median(smiMs)/1e3, len(smiMs))
	o.note("error_rate = %g (%d of %d trials)", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	return o
}

// stabilize runs one timed trial: protocol p from the arbitrary states of
// stream (proto, i) on g until a fixed point or bound rounds. It checks
// the result against the oracle outside the timed region and returns the
// trial time in ms.
func stabilize[S comparable](e *env, o *outcome, g *graph.Graph, p core.Protocol[S], proto string, i, bound int, check func(core.Config[S]) error) float64 {
	cfg := core.NewConfig[S](g)
	cfg.Randomize(p, rngFor(e.seed, proto, i))
	runtime.GC()
	root := e.tr.begin("bench.trial."+proto, 0)
	sp := e.tr.begin("sim.run", root)
	t0 := time.Now()
	res := sim.NewLockstep(p, cfg).Run(bound)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	e.tr.end(sp)
	sp = e.tr.begin("verify.check", root)
	err := check(cfg)
	e.tr.end(sp)
	e.tr.end(root)
	o.counts = append(o.counts, res.Rounds, res.Moves)
	switch {
	case !res.Stable || res.Rounds > bound:
		o.failed++
		o.fail("%s trial %d: %v, bound %d rounds", proto, i, res, bound)
	case err != nil:
		o.failed++
		o.fail("%s trial %d: oracle: %v", proto, i, err)
	}
	return ms
}
