package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
	"selfstab/internal/verify"
)

// probeRepeats is how many times each timed layer probe runs; the
// probe reports the median.
const probeRepeats = 5

// probeLayers times each layer's public functions on the workload's own
// graph g and adds the results to m. The probes run after the traced
// pass, outside any span. It returns the correctness violations found.
func probeLayers(e *env, g *graph.Graph, m map[string]float64) []string {
	m["graph.csr_build_ms"] = timeMedian(func() { graph.BuildCSR(g) })

	smm, smi := core.NewSMM(), core.NewSMI()
	m["core.smm_eval_ns_per_node"] = evalProbe[core.Pointer](e, g, smm, "smm")
	m["core.smi_eval_ns_per_node"] = evalProbe[bool](e, g, smi, "smi")

	smmCfg := stepProbe(e, g, smm, m)
	smiCfg := core.NewConfig[bool](g)
	smiCfg.Randomize(smi, rngFor(e.seed, "probe-smi", 0))
	res := sim.NewLockstep(smi, smiCfg).Run(2*g.N() + 2)
	m["sim.smi_rounds"] = float64(res.Rounds)
	m["sim.smi_moves"] = float64(res.Moves)

	var problems []string
	if err := faultProbe(e, g, smm, m); err != nil {
		problems = append(problems, err.Error())
	}
	var smmErr, smiErr error
	m["verify.smm_check_ms"] = timeMedian(func() { smmErr = verify.IsMaximalMatching(g, core.MatchingOf(smmCfg)) })
	m["verify.smi_check_ms"] = timeMedian(func() { smiErr = verify.IsMaximalIndependentSet(g, core.SetOf(smiCfg)) })
	for _, err := range []error{smmErr, smiErr} {
		if err != nil {
			problems = append(problems, "probe oracle: "+err.Error())
		}
	}
	if !res.Stable {
		problems = append(problems, "SMI probe: "+res.String())
	}
	return problems
}

// timeMedian returns the median wall time of f in ms.
func timeMedian(f func()) float64 {
	var ms []float64
	for i := 0; i < probeRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		f()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// evalProbe times one full-frontier MoveBatch over every node from
// arbitrary states and returns ns per node.
func evalProbe[S comparable](e *env, g *graph.Graph, p interface {
	core.Protocol[S]
	core.BatchEvaluator[S]
}, name string) float64 {
	cfg := core.NewConfig[S](g)
	cfg.Randomize(p, rngFor(e.seed, "probe-eval-"+name, 0))
	ids := make([]graph.NodeID, g.N())
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	csr := g.Snapshot()
	next := make([]S, g.N())
	moved := make([]bool, g.N())
	return timeMedian(func() { p.MoveBatch(ids, csr, cfg.States, next, moved) }) * 1e6 / float64(g.N())
}

// stepProbe drives SMM round by round from arbitrary states, timing each
// Step, and returns the stabilized configuration.
func stepProbe(e *env, g *graph.Graph, p core.Protocol[core.Pointer], m map[string]float64) core.Config[core.Pointer] {
	cfg := core.NewConfig[core.Pointer](g)
	cfg.Randomize(p, rngFor(e.seed, "probe-smm", 0))
	runtime.GC()
	l := sim.NewLockstep(p, cfg)
	var rounds []float64
	var total time.Duration
	for len(rounds) <= g.N()+1 {
		t0 := time.Now()
		moved := l.Step()
		d := time.Since(t0)
		total += d
		if moved == 0 {
			break
		}
		rounds = append(rounds, float64(d.Nanoseconds())/1e6)
	}
	m["sim.smm_rounds"] = float64(l.Rounds())
	m["sim.smm_moves"] = float64(l.Moves())
	m["sim.round_ms_p50"] = median(rounds)
	if len(rounds) > 0 {
		m["sim.round_ms_max"] = slices.Max(rounds)
		m["sim.first_round_share"] = rounds[0] / (float64(total.Nanoseconds()) / 1e6)
	}
	if l.Moves() > 0 {
		m["sim.ns_per_move"] = float64(total.Nanoseconds()) / float64(l.Moves())
	}
	return cfg
}

// faultProbe stabilizes the same arbitrary SMM states on the plain
// frontier executor and on the fault-capable one (which routes every
// neighbor read through the fault overlay) and reports both times and
// their ratio. The two runs must agree exactly.
func faultProbe(e *env, g *graph.Graph, p core.Protocol[core.Pointer], m map[string]float64) error {
	plain := core.NewConfig[core.Pointer](g)
	plain.Randomize(p, rngFor(e.seed, "probe-faults", 0))
	faulty := plain.Clone()
	runtime.GC()
	t0 := time.Now()
	a := sim.NewLockstep(p, plain).Run(g.N() + 1)
	simMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.GC()
	t0 = time.Now()
	b := sim.NewFaultLockstep(p, faulty).Lockstep().Run(g.N() + 1)
	faultMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	m["sim.converge_ms"] = simMs
	m["faults.converge_ms"] = faultMs
	m["faults.slowdown"] = faultMs / simMs
	if !a.Stable || a != b || !slices.Equal(plain.States, faulty.States) {
		return fmt.Errorf("fault-capable executor diverged from the plain one: %v vs %v", a, b)
	}
	return nil
}
