package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/faults"
	"selfstab/internal/graph"
	"selfstab/internal/protocols"
)

// This file is the sharded-vs-reference metamorphic suite: the sharded
// engine at 1, 2, 4, and 8 shards must produce byte-identical executions
// — per-round move counts, per-round state vectors, Result values, fault
// reports — to the full-scan reference engine on arbitrary graphs,
// arbitrary initial configurations, and arbitrary fault schedules. Any
// divergence means a shard-phase invariant is broken (ownership, halo
// coverage, or barrier placement; see DESIGN.md §7c).

var shardCounts = [4]int{1, 2, 4, 8}

func TestShardedMatchesReferenceSMM(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
		seed := int64(trial)
		for _, k := range shardCounts {
			sh := NewShardedLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed), k)
			ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
			stepCompare(t, "sharded SMM", sh, ref, g.N()+4)
			sh.Close()
		}
	}
	// The Section 3 counterexample never stabilizes: every shard count
	// must replay the reference's period-2 oscillation on C4 and run to
	// the round limit.
	c4 := func() core.Config[core.Pointer] {
		cfg := core.NewConfig[core.Pointer](graph.Cycle(4))
		for i := range cfg.States {
			cfg.States[i] = core.Null
		}
		return cfg
	}
	for _, k := range shardCounts {
		sh := NewShardedLockstep[core.Pointer](core.NewSMMArbitrary(), c4(), k)
		ref := NewReferenceLockstep[core.Pointer](core.NewSMMArbitrary(), c4())
		stepCompare(t, "sharded SMM-arbitrary", sh, ref, 9)
		if res := sh.Run(9); res.Stable || res.Rounds != 9 {
			t.Fatalf("shards=%d: SMM-arbitrary on C4: %v, want 9 unstable rounds", k, res)
		}
		sh.Close()
	}
}

func TestShardedMatchesReferenceSMI(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
		seed := int64(trial)
		for _, k := range shardCounts {
			sh := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed), k)
			ref := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
			stepCompare(t, "sharded SMI", sh, ref, g.N()+4)
			sh.Close()
		}
	}
}

// The opaque wrapper hides the ShardKernel (and every other fast-path
// interface), forcing the sharded engine onto its generic commit+mark
// split with closed-neighborhood marking — which must agree with the
// reference's interleaved generic install.
func TestShardedGenericPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 12; trial++ {
		g := graph.RandomConnected(2+rng.Intn(40), 0.05+rng.Float64()*0.4, rng)
		seed := int64(trial)
		for _, k := range shardCounts {
			sh := NewShardedLockstep[core.Pointer](opaque[core.Pointer]{core.NewSMM()}, equivCfg[core.Pointer](core.NewSMM(), g, seed), k)
			ref := NewReferenceLockstep[core.Pointer](opaque[core.Pointer]{core.NewSMM()}, equivCfg[core.Pointer](core.NewSMM(), g, seed))
			stepCompare(t, "sharded generic SMM", sh, ref, g.N()+4)
			sh.Close()
		}
	}
}

// Guard-gated randomness must survive sharding: a node skipped by any
// shard's frontier consumes no coin flips, so the per-node streams stay
// aligned with the reference for every shard count.
func TestShardedMatchesReferenceRandMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(2+rng.Intn(30), 0.1+rng.Float64()*0.3, rng)
		seed := int64(trial)
		for _, k := range shardCounts {
			ps := protocols.NewRandMIS(g.N(), seed)
			pr := protocols.NewRandMIS(g.N(), seed)
			sh := NewShardedLockstep[bool](ps, equivCfg[bool](ps, g, seed), k)
			ref := NewReferenceLockstep[bool](pr, equivCfg[bool](pr, g, seed))
			stepCompare(t, "sharded RandMIS", sh, ref, 6*g.N()+10)
			sh.Close()
		}
	}
}

// Refined(SMM) changes aux state with moved == false, so the sharded
// generic path's change flags (not the moved flags) must drive its
// marking at every shard count.
func TestShardedMatchesReferenceRefined(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(2+rng.Intn(25), 0.1+rng.Float64()*0.3, rng)
		seed := int64(trial)
		for _, k := range shardCounts {
			ps := protocols.Refine[core.Pointer](core.NewSMM(), g.N(), seed)
			pr := protocols.Refine[core.Pointer](core.NewSMM(), g.N(), seed)
			sh := NewShardedLockstep(ps, equivCfg[protocols.RefState[core.Pointer]](ps, g, seed), k)
			ref := NewReferenceLockstep(pr, equivCfg[protocols.RefState[core.Pointer]](pr, g, seed))
			stepCompare(t, "sharded Refined(SMM)", sh, ref, 8*g.N()+10)
			sh.Close()
		}
	}
}

// The pooled dispatch path — real worker goroutines, channel barriers —
// must be byte-identical too. shardParallelMin is lowered so even these
// small graphs cross the threshold; under -race this doubles as the
// data-race proof for the four-phase footprint argument.
func TestShardedPooledPathMatchesReference(t *testing.T) {
	old := shardParallelMin
	shardParallelMin = 1
	defer func() { shardParallelMin = old }()

	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(4+rng.Intn(40), 0.1+rng.Float64()*0.3, rng)
		seed := int64(trial)
		for _, k := range shardCounts {
			sh := NewShardedLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed), k)
			ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), g, seed))
			stepCompare(t, "pooled sharded SMM", sh, ref, g.N()+4)
			sh.Close()

			shi := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed), k)
			refi := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
			stepCompare(t, "pooled sharded SMI", shi, refi, g.N()+4)
			shi.Close()

			// A randomized protocol on the pool: per-node generators keep
			// concurrent Move calls race-free and the streams aligned.
			ps := protocols.NewRandMIS(g.N(), seed)
			pr := protocols.NewRandMIS(g.N(), seed)
			shr := NewShardedLockstep[bool](ps, equivCfg[bool](ps, g, seed), k)
			refr := NewReferenceLockstep[bool](pr, equivCfg[bool](pr, g, seed))
			stepCompare(t, "pooled sharded RandMIS", shr, refr, 6*g.N()+10)
			shr.Close()
		}
	}
}

// Run must return identical Results and fixpoints for every shard count.
func TestShardedRunResultMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(4+rng.Intn(40), 0.1+rng.Float64()*0.3, rng)
		seed := int64(trial)
		ref := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed))
		want := ref.Run(g.N() + 2)
		for _, k := range shardCounts {
			sh := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, seed), k)
			got := sh.Run(g.N() + 2)
			if got != want {
				t.Fatalf("shards=%d: Result %+v, reference %+v", k, got, want)
			}
			for v := range sh.cfg.States {
				if sh.cfg.States[v] != ref.cfg.States[v] {
					t.Fatalf("shards=%d: node %d diverged at fixpoint", k, v)
				}
			}
			sh.Close()
		}
	}
}

// Replaying a generated fault schedule on the sharded fault adapter and
// on the reference adapter must produce deeply equal monitor reports and
// identical final states at every shard count. This exercises the dirty
// routing to owning shards and the halo rebuild on link flips.
func TestShardedFaultScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(14)
		g := graph.RandomConnected(n, 0.3, rng)
		seed := int64(trial) * 9973
		sched := faults.Generate(seed, g, faults.GenParams{Events: 6, Start: n + 2})

		run := func(mk func(core.Protocol[core.Pointer], core.Config[core.Pointer]) *FaultLockstep[core.Pointer]) (faults.Report, []core.Pointer) {
			p := core.NewSMM()
			cfg := equivCfg[core.Pointer](p, g.Clone(), seed)
			tgt := mk(p, cfg)
			rep := faults.RunSchedule[core.Pointer](p, tgt, sched, faults.SMMChecker, faults.Options{BoundFactor: 1, BoundSlack: 1})
			tgt.Close()
			return rep, append([]core.Pointer(nil), cfg.States...)
		}
		repR, stR := run(NewReferenceFaultLockstep[core.Pointer])
		for _, k := range shardCounts {
			k := k
			repS, stS := run(func(p core.Protocol[core.Pointer], cfg core.Config[core.Pointer]) *FaultLockstep[core.Pointer] {
				return NewShardedFaultLockstep(p, cfg, k)
			})
			if !reflect.DeepEqual(repS, repR) {
				t.Fatalf("trial %d shards=%d: reports diverged:\nsharded:   %+v\nreference: %+v", trial, k, repS, repR)
			}
			if !reflect.DeepEqual(stS, stR) {
				t.Fatalf("trial %d shards=%d: final states diverged:\nsharded:   %v\nreference: %v", trial, k, stS, stR)
			}
		}
	}
}

// Direct topology and state edits between Run calls must be absorbed by
// the version self-detection (which also rebuilds the halo index) and
// the Run-entry re-dirty at every shard count.
func TestShardedSurvivesExternalMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(12)
		p := 0.3
		gseed := rng.Int63()
		mk := func() *graph.Graph {
			return graph.RandomConnected(n, p, rand.New(rand.NewSource(gseed)))
		}
		seed := int64(trial)
		churnOn := func(g *graph.Graph, l *Lockstep[core.Pointer]) {
			churn := rand.New(rand.NewSource(seed + 900))
			for j := 0; j < 3; j++ {
				u := graph.NodeID(churn.Intn(g.N()))
				v := graph.NodeID(churn.Intn(g.N()))
				if u == v {
					continue
				}
				if g.HasEdge(u, v) {
					g.RemoveEdge(u, v)
				} else {
					g.AddEdge(u, v)
				}
			}
			core.NormalizeSMM(l.Config())
			corrupt := graph.NodeID(churn.Intn(g.N()))
			l.Config().States[corrupt] = core.PointAt(graph.NodeID((int(corrupt) + 1) % g.N()))
			core.NormalizeSMM(l.Config())
		}

		gr := mk()
		ref := NewReferenceLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), gr, seed))
		r0 := ref.Run(gr.N() + 2)
		churnOn(gr, ref)
		r1 := ref.Run(gr.N() + 2)

		for _, k := range shardCounts {
			gs := mk()
			sh := NewShardedLockstep[core.Pointer](core.NewSMM(), equivCfg[core.Pointer](core.NewSMM(), gs, seed), k)
			if got := sh.Run(gs.N() + 2); got != r0 {
				t.Fatalf("trial %d shards=%d: initial runs diverged: %v vs %v", trial, k, got, r0)
			}
			churnOn(gs, sh)
			if got := sh.Run(gs.N() + 2); got != r1 {
				t.Fatalf("trial %d shards=%d: post-churn runs diverged: %v vs %v", trial, k, got, r1)
			}
			for v := range sh.cfg.States {
				if sh.cfg.States[v] != ref.cfg.States[v] {
					t.Fatalf("trial %d shards=%d: node %d diverged after churn", trial, k, v)
				}
			}
			sh.Close()
		}
	}
}

// The SetShards seam must set the shard count of executors built after
// it and leave reference engines at one shard with full rounds — that
// pair is what lets the harness and soak twins replay whole campaigns
// through the sharded engine without plumbing a shard count through
// every constructor.
func TestSetShardsSeam(t *testing.T) {
	g := graph.Path(32)
	SetShards(4)
	defer SetShards(1)
	l := NewLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, 1))
	if l.sh.k != 4 {
		t.Fatalf("seam did not shard the frontier engine: k = %d", l.sh.k)
	}
	ref := NewReferenceLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, 1))
	if ref.sh.k != 1 || !ref.fullScan {
		t.Fatalf("reference engine: k = %d, fullScan = %v; want one shard with full rounds", ref.sh.k, ref.fullScan)
	}
	ft := NewFaultLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), g, 1))
	if ft.l.sh.k != 4 {
		t.Fatalf("seam did not shard the fault adapter: k = %d", ft.l.sh.k)
	}
	// Clamping: more shards than nodes collapses to the node count, so a
	// single-node graph runs as one shard rather than with empty ranges.
	tiny := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), graph.Path(3), 1), 8)
	if tiny.sh.k != 3 {
		t.Fatalf("shard clamp to node count failed: k = %d", tiny.sh.k)
	}
	one := NewShardedLockstep[bool](core.NewSMI(), equivCfg[bool](core.NewSMI(), graph.Path(1), 1), 8)
	if one.sh.k != 1 {
		t.Fatalf("single-node graph: k = %d, want 1", one.sh.k)
	}
}

// Steady-state rounds must allocate nothing, on the default one-shard
// engine and on a sharded one: the zero-allocation property the
// million-node benchmarks depend on, pinned here so it cannot regress
// silently. Both quiet rounds and active fault-recovery rounds are
// measured after the buffers have warmed up.
func TestShardedStepZeroAllocSteadyState(t *testing.T) {
	g := graph.RandomConnected(256, 0.03, rand.New(rand.NewSource(42)))
	for _, k := range []int{1, 4} {
		p := core.NewSMM()
		cfg := equivCfg[core.Pointer](p, g, 42)
		l := NewLockstep[core.Pointer](p, cfg)
		if k > 1 {
			l = NewShardedLockstep[core.Pointer](p, cfg, k)
		}
		if res := l.Run(g.N() + 2); !res.Stable {
			t.Fatalf("shards=%d: did not stabilize: %v", k, res)
		}
		if avg := testing.AllocsPerRun(50, func() { l.Step() }); avg != 0 {
			t.Fatalf("shards=%d: quiet round allocates: %v allocs/op", k, avg)
		}
		victim := graph.NodeID(17)
		if avg := testing.AllocsPerRun(50, func() {
			cfg.States[victim] = core.Null
			l.DirtyState(victim)
			for l.Step() > 0 {
			}
		}); avg != 0 {
			t.Fatalf("shards=%d: active recovery allocates: %v allocs/op", k, avg)
		}
		l.Close()
	}
}

// A one-shard engine never dispatches to the worker pool, however large
// its rounds: it starts no goroutine and needs no Close, which is what
// lets plain NewLockstep callers drop executors without releasing them.
func TestOneShardNeverStartsPool(t *testing.T) {
	n := shardParallelMin + 64
	g := graph.RandomConnected(n, 8/float64(n), rand.New(rand.NewSource(43)))
	p := core.NewSMM()
	l := NewLockstep[core.Pointer](p, equivCfg[core.Pointer](p, g, 43))
	if l.sh.k != 1 {
		t.Fatalf("k = %d, want 1", l.sh.k)
	}
	if res := l.Run(n + 2); !res.Stable {
		t.Fatalf("did not stabilize: %v", res)
	}
	if l.sh.started {
		t.Fatal("one-shard engine started the worker pool")
	}
}
