package sim

import (
	"sync"
	"sync/atomic"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// defaultShards, when set above 1, makes every Lockstep built by
// NewLockstep (including the fault adapters) run with that many shards.
// It is the sharded analog of referenceScan: the metamorphic
// equivalence tests flip it to replay whole experiment tables and soak
// campaigns through the sharded engine and demand byte-identical
// output. Production code constructs sharded executors explicitly via
// NewShardedLockstep.
var defaultShards atomic.Int32

// SetShards sets the shard count for executors constructed afterwards
// (already-built executors keep their engine); k <= 1 restores the
// one-shard default. Tests must not toggle it while executors are being
// constructed concurrently.
func SetShards(k int) { defaultShards.Store(int32(k)) }

// shardParallelMin is the round-size threshold (drained active nodes,
// estimated from the previous round) below which the sharded executor
// runs its phases inline on the coordinator goroutine instead of
// dispatching to the worker pool. Small or quiescing executions — unit
// tests, the tail of a convergence run — stay free of goroutine and
// channel traffic; the pool is spawned lazily the first time a round
// clears the threshold. It is a variable so the equivalence tests can
// lower it and drive the pooled path under the race detector.
var shardParallelMin = 4096

// shardReq is one unit of pool work: run one phase for one shard.
type shardReq struct {
	phase int
	shard int
}

// Phases of a sharded round, in order. Each runs for every shard with a
// barrier in between, so a phase never observes another shard's partial
// work from the same phase.
const (
	phaseEval   = iota // drain own range, evaluate into next/moved
	phaseCommit        // install own range's results into states
	phaseMark          // derive re-evaluation marks from post-round states
	phaseAbsorb        // pull marks other shards left in our range
)

// shardRT is the round engine hanging off every Lockstep. It splits each
// round into the four phases above across K contiguous node ranges
// (K = 1 for the sequential engine) while keeping observable behavior —
// Results, rounds, moves, states — byte-identical for every K:
//
//   - Eval reads only the frozen pre-round state vector and writes
//     next/moved at owned indices — disjoint across shards.
//   - Commit writes states at owned indices — disjoint.
//   - Mark reads the fully committed post-round vector and writes only
//     the shard's own frontier (at owned and halo indices).
//   - Absorb moves the marks other shards left inside this shard's
//     range (bounded by the partition's halo spans) into its frontier —
//     writes land in disjoint ranges across shards, so the merge is
//     race-free and, being commutative flag ORs, order-independent.
//
// Byte-identity with the full scan follows from the frontier argument
// (DESIGN.md §7b): each shard's frontier, after absorb, covers every
// node in its range whose view changed, so the union drained next round
// is a sound superset of the privileged set, and evaluating a
// non-privileged node is a no-op that consumes no randomness.
type shardRT[S comparable] struct {
	k      int
	part   *graph.Partition
	shards []shard[S]

	fullRound  bool // next round evaluates everyone (Run entry, topology resync)
	roundFull  bool // the round in flight is a full round
	parallel   bool // the round in flight uses the worker pool
	lastActive int  // drained size of the previous round, the pool heuristic

	// skern, when the protocol provides one, is the barrier-split
	// install fast path; nil falls back to the generic commit+mark with
	// closed-neighborhood marking.
	skern core.ShardKernel[S]

	workCh  chan shardReq
	wg      sync.WaitGroup
	started bool
	closed  bool
}

// shard is one node range's state in the round engine. The per-shard
// fields live side by side so an executor's construction cost stays a
// handful of allocations whatever the shard count.
type shard[S comparable] struct {
	// front is the shard's full-length frontier. The shard drains only
	// its own range from it; marks it writes outside that range land in
	// its halo and are pulled over by the owners during absorb. Shard
	// frontiers never use the "full" state — fullRound replaces it so no
	// per-range scan ever has to expand an implicit full set.
	front  graph.Frontier
	buf    []graph.NodeID // drain buffer, cap = range size
	chg    []bool         // generic-path change flags, parallel to buf; nil with a kernel
	mv     int            // move count of the round in flight
	chgAny bool           // some state changed in the round in flight

	// rd/peer are the generic Move path's Peer reader: one per shard so
	// concurrent shards can each re-target their own viewer. Built only
	// for executors that take that path (see initReaders).
	rd   peerReader[S]
	peer func(graph.NodeID) S
}

// NewShardedLockstep wraps protocol p over configuration cfg with the
// frontier engine at the given shard count. Semantics are those of
// NewLockstep — same Results, same state evolution, byte for byte —
// with rounds executed shard-parallel once they are large enough to pay
// for dispatch. shards is clamped to [1, node count]; one shard is the
// sequential engine and never starts a goroutine. With more, call Close
// when done to release the worker pool (a pool is only spawned once a
// round exceeds an internal size threshold, so small executions hold no
// goroutines).
func NewShardedLockstep[S comparable](p core.Protocol[S], cfg core.Config[S], shards int) *Lockstep[S] {
	n := len(cfg.States)
	k := max(1, min(shards, n))
	l := &Lockstep[S]{
		p:        p,
		cfg:      cfg,
		next:     make([]S, n),
		movedBuf: make([]bool, n),
		fullScan: referenceScan.Load(),
		csr:      cfg.G.Snapshot(),
	}
	l.batch, _ = p.(core.BatchEvaluator[S])
	rt := &l.sh
	rt.k = k
	rt.part = graph.NewPartition(l.csr, k)
	rt.shards = make([]shard[S], k)
	rt.fullRound = true
	rt.skern, _ = p.(core.ShardKernel[S])
	for s := range rt.shards {
		sh := &rt.shards[s]
		lo, hi := rt.part.Range(s)
		sh.front = *graph.NewFrontier(n)
		sh.front.Reset()
		sh.buf = make([]graph.NodeID, 0, hi-lo)
		if rt.skern == nil {
			sh.chg = make([]bool, hi-lo)
		}
	}
	if l.batch == nil {
		l.initReaders()
	}
	return l
}

// initReaders builds every shard's Peer reader for the generic Move
// path, over the current peerFilter. Only executors that take that path
// pay for the closures: protocols without a batch evaluator, and fault
// runs, whose filter mediates every read.
func (l *Lockstep[S]) initReaders() {
	for s := range l.sh.shards {
		sh := &l.sh.shards[s]
		sh.rd = peerReader[S]{states: l.cfg.States, filter: l.peerFilter}
		sh.peer = sh.rd.read
	}
}

// Close releases the worker pool, if one was spawned. It is a no-op on
// one-shard executors and safe to call more than once.
func (l *Lockstep[S]) Close() { l.sh.close() }

// addAll schedules a full round: every node of every shard evaluates.
// Pending per-shard marks are discharged — the full round subsumes them.
//
//selfstab:noalloc
func (rt *shardRT[S]) addAll() {
	for s := range rt.shards {
		rt.shards[s].front.Reset()
	}
	rt.fullRound = true
}

// Step implements Instance: every frontier node evaluates its rules
// against the current configuration and all resulting states are
// installed at once, with the evaluate and install halves split into
// barrier-separated shard phases. Non-frontier nodes are provably
// no-ops (their view is unchanged since they last evaluated inactive),
// so the returned move count equals the full scan's. Steady-state
// rounds allocate nothing (pinned by noalloc and the bench gate); the
// suppressed cold paths run only on topology resync, on the one-time
// pool spawn, or for protocols without batch kernels.
//
//selfstab:noalloc
func (l *Lockstep[S]) Step() int {
	rt := &l.sh
	if !l.csr.Fresh(l.cfg.G) {
		// Unattributed topology change (mobility churn, a test editing
		// the graph): re-snapshot, rebuild the halo index (ranges depend
		// only on (n, k) and stay put), and re-evaluate everyone.
		//lint:ignore noalloc cold resync path, runs only when the topology version moved
		l.csr = l.cfg.G.Snapshot()
		//lint:ignore noalloc cold resync path, partition rebuild only on topology change
		rt.part = graph.NewPartition(l.csr, rt.k)
		rt.addAll()
	}
	rt.roundFull = rt.fullRound || l.fullScan
	rt.fullRound = false
	est := rt.lastActive
	if rt.roundFull {
		est = len(l.cfg.States)
	}
	rt.parallel = rt.k > 1 && est >= shardParallelMin

	rt.runAll(l, phaseEval)
	active := 0
	for s := range rt.shards {
		active += len(rt.shards[s].buf)
	}
	rt.lastActive = active

	rt.runAll(l, phaseCommit)
	moved, anyChg := 0, false
	for s := range rt.shards {
		moved += rt.shards[s].mv
		anyChg = anyChg || rt.shards[s].chgAny
	}
	// Quiet rounds skip the install half entirely: nothing moved and
	// nothing changed, so there are no marks to derive or exchange.
	if moved > 0 || anyChg {
		rt.runAll(l, phaseMark)
		rt.runAll(l, phaseAbsorb)
	}
	if moved > 0 {
		l.rounds++
		l.moves += moved
	}
	return moved
}

// runAll runs one phase for every shard: inline in ascending shard
// order on small rounds, on the worker pool otherwise. Either way the
// phase fully completes for all shards before runAll returns — that
// barrier is what lets the mark phase read post-round states and the
// absorb phase see every shard's finished marks.
//
//selfstab:noalloc
func (rt *shardRT[S]) runAll(l *Lockstep[S], phase int) {
	if !rt.parallel {
		for s := 0; s < rt.k; s++ {
			rt.runPhase(l, phase, s)
		}
		return
	}
	//lint:ignore noalloc one-time lazy pool spawn, amortized over the run
	rt.ensurePool(l)
	rt.wg.Add(rt.k)
	for s := 0; s < rt.k; s++ {
		rt.workCh <- shardReq{phase: phase, shard: s}
	}
	rt.wg.Wait()
}

// ensurePool spawns the K persistent workers on first parallel use.
func (rt *shardRT[S]) ensurePool(l *Lockstep[S]) {
	if rt.started {
		return
	}
	rt.started = true
	rt.workCh = make(chan shardReq)
	for i := 0; i < rt.k; i++ {
		go shardWorker(l)
	}
}

func shardWorker[S comparable](l *Lockstep[S]) {
	rt := &l.sh
	for req := range rt.workCh {
		rt.runPhase(l, req.phase, req.shard)
		rt.wg.Done()
	}
}

func (rt *shardRT[S]) close() {
	if rt.started && !rt.closed {
		rt.closed = true
		close(rt.workCh)
	}
}

// runPhase executes one phase for shard s. See shardRT for the per-phase
// read/write footprints that make concurrent execution race-free.
//
//selfstab:noalloc
func (rt *shardRT[S]) runPhase(l *Lockstep[S], phase, s int) {
	switch phase {
	case phaseEval:
		rt.evalShard(l, s)
	case phaseCommit:
		rt.commitShard(l, s)
	case phaseMark:
		rt.markShard(l, s)
	case phaseAbsorb:
		rt.absorbShard(s)
	default:
		panic("sim: unknown shard phase")
	}
}

// evalShard drains shard s's range and evaluates every drained node
// against the frozen pre-round state vector.
//
//selfstab:noalloc
func (rt *shardRT[S]) evalShard(l *Lockstep[S], s int) {
	sh := &rt.shards[s]
	lo, hi := rt.part.Range(s)
	var ids []graph.NodeID
	if rt.roundFull {
		ids = sh.buf[:0]
		for v := lo; v < hi; v++ {
			//lint:ignore noalloc buf is pre-sized to the range, so append never grows
			ids = append(ids, v)
		}
		// Discharge stray marks routed in since the full round was
		// scheduled — the full evaluation subsumes them.
		sh.front.Reset()
	} else {
		ids = sh.front.DrainRange(sh.buf, int(lo), int(hi))
	}
	sh.buf = ids

	states := l.cfg.States
	filtered := l.peerFilter != nil
	if l.batch != nil && !filtered {
		l.batch.MoveBatch(ids, l.csr, states, l.next, l.movedBuf)
		return
	}
	direct := states
	if filtered {
		direct = nil // mediated reads: protocols must go through Peer
	}
	for _, id := range ids {
		sh.rd.viewer = id
		//lint:ignore noalloc generic fallback for protocols without batch kernels; the kernel path above is the allocation-free one
		next, m := l.p.Move(core.View[S]{
			ID:    id,
			Self:  states[id],
			Nbrs:  l.csr.Neighbors(id),
			Peer:  sh.peer,
			Peers: direct,
		})
		l.next[id] = next
		l.movedBuf[id] = m
	}
}

// commitShard installs shard s's results into the shared state vector —
// writes land only at owned indices.
//
//selfstab:noalloc
func (rt *shardRT[S]) commitShard(l *Lockstep[S], s int) {
	sh := &rt.shards[s]
	ids := sh.buf
	states := l.cfg.States
	if rt.skern != nil {
		sh.mv = rt.skern.CommitBatch(ids, states, l.next, l.movedBuf)
		sh.chgAny = sh.mv > 0
		return
	}
	mv, any := 0, false
	for i, id := range ids {
		nx := l.next[id]
		c := nx != states[id]
		sh.chg[i] = c
		if c {
			states[id] = nx
			any = true
		}
		if l.movedBuf[id] {
			mv++
		}
	}
	sh.mv, sh.chgAny = mv, any
}

// markShard derives shard s's re-evaluation marks from the fully
// committed post-round states, writing only its own frontier. The
// generic path marks the closed neighborhood of every changed node (and
// every mover itself): it reads no neighbor states, only structure, so
// the commit/mark split cannot change which nodes it marks.
//
//selfstab:noalloc
func (rt *shardRT[S]) markShard(l *Lockstep[S], s int) {
	sh := &rt.shards[s]
	f := &sh.front
	if rt.skern != nil {
		rt.skern.MarkBatch(sh.buf, l.csr, l.cfg.States, l.movedBuf, f)
		return
	}
	offs, nbrs := l.csr.Rows()
	for i, id := range sh.buf {
		if l.movedBuf[id] {
			f.Add(id)
		}
		if sh.chg[i] {
			f.Add(id)
			for _, w := range nbrs[offs[id]:offs[id+1]] {
				f.Add(w)
			}
		}
	}
}

// absorbShard pulls the marks every other shard left inside shard s's
// range into s's frontier, visiting sources in ascending shard order.
// Marks are commutative ORs, so the merge order cannot affect the
// drained set — the ascending order is just a fixed convention.
//
//selfstab:noalloc
func (rt *shardRT[S]) absorbShard(s int) {
	mine := &rt.shards[s].front
	for t := range rt.shards {
		if t == s {
			continue
		}
		alo, ahi := rt.part.AbsorbSpan(t, s)
		if alo < ahi {
			mine.Absorb(&rt.shards[t].front, int(alo), int(ahi))
		}
	}
}
