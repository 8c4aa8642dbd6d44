// Package sim provides the reference executor for protocols in the
// synchronous beacon model: a deterministic lockstep simulator in which
// every round each node observes the round-t states of all its neighbors
// and all privileged nodes move simultaneously. A round here corresponds
// exactly to the paper's "period of time in which each node in the system
// receives beacon messages from all its neighbors".
//
// Lockstep has one round engine: the sharded active-frontier engine of
// sharded.go, which runs as a single shard by default. After each round
// only nodes whose local view may have changed — movers, nodes whose
// state changed, and the neighbors of the latter — are enqueued for
// evaluation next round. Because Move is a pure function of the local
// view (enforced by the purity analyzer; see DESIGN.md, "Active-frontier
// scheduling"), a node outside the frontier is guaranteed to be a no-op,
// so every Result, trace, and state sequence is byte-identical to the
// full scan. The reference engine (NewReferenceLockstep) is the same
// engine with every round forced to a full round; the metamorphic suite
// replays random workloads on both and demands equality.
package sim

import (
	"context"
	"fmt"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// Result summarizes a run.
type Result struct {
	// Rounds is the number of rounds in which at least one node moved —
	// the paper's stabilization time. If Stable is false, Rounds equals
	// the round limit.
	Rounds int
	// Moves is the total number of individual node moves.
	Moves int
	// Stable reports whether a fixed point was reached within the limit.
	Stable bool
}

// String renders e.g. "stable in 5 rounds (12 moves)".
func (r Result) String() string {
	if r.Stable {
		return fmt.Sprintf("stable in %d rounds (%d moves)", r.Rounds, r.Moves)
	}
	return fmt.Sprintf("NOT stable after %d rounds (%d moves)", r.Rounds, r.Moves)
}

// Instance is the protocol-agnostic face of a running simulation, used by
// the experiment harness to drive heterogeneous protocols uniformly.
type Instance interface {
	// Name identifies the protocol under simulation.
	Name() string
	// Step executes one synchronous round and returns how many nodes moved.
	Step() int
	// Run drives Step until a round with zero moves or until maxRounds
	// rounds with moves have executed.
	Run(maxRounds int) Result
	// Rounds returns the number of rounds with moves executed so far.
	Rounds() int
	// Moves returns the total moves executed so far.
	Moves() int
}

// peerReader is the reusable Peer reader of the generic Move path: one
// value per shard, re-targeted per node by writing viewer, so the path
// allocates nothing per node (the closure over the pointer is created
// once, by initReaders). With a nil filter it reads the fresh states.
type peerReader[S comparable] struct {
	viewer graph.NodeID
	states []S
	filter func(viewer, nbr graph.NodeID, fresh S) S
}

func (r *peerReader[S]) read(j graph.NodeID) S {
	if r.filter == nil {
		return r.states[j]
	}
	return r.filter(r.viewer, j, r.states[j])
}

// Lockstep runs one protocol on one configuration in lockstep rounds.
// It is the reference semantics the beacon simulator and the concurrent
// runtime are validated against.
type Lockstep[S comparable] struct {
	p      core.Protocol[S]
	cfg    core.Config[S]
	next   []S
	rounds int
	moves  int
	// peerFilter, when non-nil, intercepts every neighbor-state read of a
	// round with (viewer, neighbor, fresh state). It is how the fault
	// layer serves stale views (beacon-loss bursts, frozen neighbor
	// tables) without touching the true states; nil in normal runs. It
	// is set once, at construction of the fault adapter, which then
	// rebuilds the shard readers (initReaders) over it.
	peerFilter func(viewer, nbr graph.NodeID, fresh S) S

	// fullScan selects the reference engine: every round is a full round.
	fullScan bool
	// csr is the flat adjacency snapshot serving all neighbor reads; it
	// is rebuilt (and every node re-dirtied) whenever the topology's
	// version moves without a DirtyEdge notification.
	csr      *graph.CSR
	movedBuf []bool // per-node active flag of the current round

	// batch, when the protocol provides one, evaluates a shard's drained
	// nodes in a single call on the unfiltered path — no View
	// construction and no interface dispatch per node. It is nil for
	// wrapped or third-party protocols, which take the per-node Move loop.
	batch core.BatchEvaluator[S]

	// sh is the round engine: the node ID space partitioned into k
	// contiguous ranges, each with its own frontier, and every round run
	// as barrier-separated shard phases (see sharded.go). The sequential
	// engine is the k = 1 case.
	sh shardRT[S]
}

// NewLockstep wraps protocol p over configuration cfg with the
// active-frontier engine: after each round only nodes whose local view
// may have changed are evaluated next round. It runs as one shard
// unless the SetShards test seam asks for more. The configuration is
// used in place (not copied): callers observing cfg see the evolving
// states.
//
// Callers that mutate cfg.States or the topology directly between
// rounds must either call Run (which re-dirties everything at entry) or
// notify the engine through DirtyState/DirtyEdge; the fault adapters do
// the latter. Topology edits are self-detected via graph.Version.
func NewLockstep[S comparable](p core.Protocol[S], cfg core.Config[S]) *Lockstep[S] {
	return NewShardedLockstep(p, cfg, int(defaultShards.Load()))
}

// NewReferenceLockstep wraps p over cfg with the full-scan reference
// engine: the one-shard engine with every round a full round, so every
// node is evaluated every round — exactly the paper's round structure
// with no scheduling shortcut. It exists as the oracle the metamorphic
// tests compare the frontier engine against.
func NewReferenceLockstep[S comparable](p core.Protocol[S], cfg core.Config[S]) *Lockstep[S] {
	l := NewShardedLockstep(p, cfg, 1)
	l.fullScan = true
	return l
}

// Name implements Instance.
func (l *Lockstep[S]) Name() string { return l.p.Name() }

// Config exposes the current configuration.
func (l *Lockstep[S]) Config() core.Config[S] { return l.cfg }

// Rounds implements Instance.
func (l *Lockstep[S]) Rounds() int { return l.rounds }

// Moves implements Instance.
func (l *Lockstep[S]) Moves() int { return l.moves }

// DirtyState marks node v's closed neighborhood for re-evaluation after
// an external write to States[v] (a memory-corruption fault, a crash
// resurrection): v's own view changed, and v's state is part of every
// neighbor's view.
func (l *Lockstep[S]) DirtyState(v graph.NodeID) {
	l.dirty(v)
	for _, w := range l.cfg.G.Neighbors(v) {
		l.dirty(w)
	}
}

// dirty marks one node for re-evaluation on the owning shard's frontier.
//
//selfstab:noalloc
func (l *Lockstep[S]) dirty(v graph.NodeID) {
	l.sh.shards[l.sh.part.Owner(v)].front.Add(v)
}

// DirtyView marks node v alone for re-evaluation: its effective view
// changed without any state changing, e.g. a stale-read pin was
// installed on or expired from its peer reads.
func (l *Lockstep[S]) DirtyView(v graph.NodeID) {
	l.dirty(v)
}

// DirtyEdge re-syncs the adjacency snapshot after the caller mutated the
// topology on edge {u,v} and re-dirties exactly the affected closed
// neighborhoods: both endpoints (their neighbor lists changed, and link
// removal may have repaired their states) and the endpoints' current
// neighbors (whose views contain those states). Calling it after every
// hooked topology edit keeps the self-detection path (graph.Version →
// full re-dirty) for unhooked edits only.
func (l *Lockstep[S]) DirtyEdge(u, v graph.NodeID) {
	if !l.csr.Fresh(l.cfg.G) {
		l.csr = l.cfg.G.Snapshot()
		// Ranges depend only on (n, k) and stay put, but the halo index
		// follows the edge set: rebuild it so the next absorb phase
		// still covers every cross-shard mark.
		l.sh.part = graph.NewPartition(l.csr, l.sh.k)
	}
	for _, x := range [2]graph.NodeID{u, v} {
		l.dirty(x)
		for _, w := range l.csr.Neighbors(x) {
			l.dirty(w)
		}
	}
}

// Run implements Instance.
func (l *Lockstep[S]) Run(maxRounds int) Result {
	return l.RunHook(maxRounds, nil)
}

// RunHook is Run with an observation hook invoked after every round that
// had at least one move, receiving the 1-based round index and the
// post-round configuration. The hook must not mutate the configuration.
//
// Legacy uncancellable entry point: the Background context keeps
// Done() nil so the per-round check costs nothing (see runLoop).
//
//selfstab:ctx-root
func (l *Lockstep[S]) RunHook(maxRounds int, hook func(round int, cfg core.Config[S])) Result {
	res, _ := l.runLoop(context.Background(), maxRounds, true, true, hook)
	return res
}

// RunCtx is Run with cooperative cancellation: the context is checked
// once per round, between rounds, so a cancelled or deadline-expired ctx
// stops the loop at the next round boundary — states are always left at
// a consistent round cut, never mid-install. The returned error is nil
// on normal completion and ctx.Err() when the run was cut short; the
// Result then carries the rounds and moves executed so far with Stable
// false. Before RunCtx existed a Run on a non-stabilizing execution
// (e.g. the paper's four-cycle counterexample under the successor
// policy) was unstoppable from the caller short of killing the process.
func (l *Lockstep[S]) RunCtx(ctx context.Context, maxRounds int) (Result, error) {
	return l.runLoop(ctx, maxRounds, true, true, nil)
}

// ConvergeCtx is RunCtx without the full re-dirty at entry: it trusts
// the frontier to already cover every node whose view changed, which
// holds exactly when all mutations since the last run were reported
// through DirtyState/DirtyEdge/DirtyView (the fault adapters and the
// service layer do this). It also skips the final quiescence probe —
// hitting the round limit reports Stable false, and a subsequent call
// resumes where this one stopped, drains an empty frontier, and reports
// Stable true at the cost of one cheap zero-move round. This makes it
// the natural seam for chunked convergence: run a slice of rounds,
// release locks to serve reads, resume. Chunking cannot change the
// trajectory — each round is a deterministic function of the states, so
// any slicing of the same round sequence lands on the same fixed point.
func (l *Lockstep[S]) ConvergeCtx(ctx context.Context, maxRounds int) (Result, error) {
	return l.runLoop(ctx, maxRounds, false, false, nil)
}

// runLoop is the shared round loop. redirty re-enqueues every node at
// entry (the Run contract); probe runs the O(n) quiescence check when
// the round limit is reached. The ctx check is a nil-channel test plus a
// non-blocking select per round — nothing on the hot path, and
// context.Background() keeps the legacy paths literally free (Done()
// returns nil).
func (l *Lockstep[S]) runLoop(ctx context.Context, maxRounds int, redirty, probe bool, hook func(round int, cfg core.Config[S])) (Result, error) {
	// Re-dirty everything at entry: Run is the boundary at which callers
	// legitimately hand back a configuration they edited freely (e.g.
	// stabilize → churn + normalize states → Run again), so no incremental
	// knowledge survives it. Within the run the frontier shrinks as the
	// execution quiesces — which is where the paper's own convergence
	// analysis says nearly all the full-scan work is wasted.
	if redirty {
		l.sh.addAll()
	}
	done := ctx.Done()
	start := l.rounds
	for l.rounds-start < maxRounds {
		if done != nil {
			select {
			case <-done:
				return Result{Rounds: l.rounds - start, Moves: l.moves, Stable: false}, ctx.Err()
			default:
			}
		}
		if l.Step() == 0 {
			return Result{Rounds: l.rounds - start, Moves: l.moves, Stable: true}, nil
		}
		if hook != nil {
			hook(l.rounds-start, l.cfg)
		}
	}
	stable := false
	if probe {
		// One more probe: the limit-th round may have reached the fixed
		// point.
		stable = l.quiescent()
	}
	return Result{Rounds: l.rounds - start, Moves: l.moves, Stable: stable}, nil
}

// quiescent reports whether no node is privileged, without mutating state.
func (l *Lockstep[S]) quiescent() bool {
	for v := range l.cfg.States {
		if _, m := l.p.Move(l.cfg.View(graph.NodeID(v))); m {
			return false
		}
	}
	return true
}

// Stable reports whether the current configuration is a fixed point.
func (l *Lockstep[S]) Stable() bool { return l.quiescent() }

var _ Instance = (*Lockstep[bool])(nil)
