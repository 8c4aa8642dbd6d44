package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"selfstab/internal/graph"
)

// dedupWindow bounds the idempotency-key memory per tenant: the oldest
// keys are evicted in arrival order once the window fills, matching the
// at-most-once guarantee clients get for retries within the window.
const dedupWindow = 4096

var (
	errQuarantined = errors.New("tenant quarantined")
	errClosed      = errors.New("tenant closed")
)

// command is one unit of work for a tenant's event loop. The reply
// channel is buffered (capacity 1) so the loop never blocks on a
// handler that gave up waiting.
type command struct {
	mut Mutation
	// ctx is the request context; it bounds OpConverge execution only.
	// Ordinary mutations always run their full deterministic epoch —
	// a client deadline must not change where the state lands.
	ctx   context.Context
	reply chan cmdResult
}

type cmdResult struct {
	Seq       int64
	Duplicate bool
	Rounds    int
	Converged bool
	Legit     bool
	CheckErr  string
	Err       error
}

// TenantStatus is the read model served by GET /v1/tenants/{id}.
type TenantStatus struct {
	ID              string `json:"id"`
	Protocol        string `json:"protocol"`
	N               int    `json:"n"`
	M               int    `json:"m"`
	Seq             int64  `json:"seq"`
	Rounds          int    `json:"rounds"`
	Moves           int    `json:"moves"`
	Converged       bool   `json:"converged"`
	Legit           bool   `json:"legit"`
	CheckError      string `json:"check_error,omitempty"`
	Bound           int    `json:"bound"`
	LastEpochRounds int    `json:"last_epoch_rounds"`
	MaxEpochRounds  int    `json:"max_epoch_rounds"`
	EpochsOverBound int    `json:"epochs_over_bound"`
	Quarantined     string `json:"quarantined,omitempty"`
	QueueLen        int    `json:"queue_len"`
	QueueCap        int    `json:"queue_cap"`
}

// SnapshotView is the read model served by GET .../snapshot: the same
// deterministic content a checkpoint file holds, read at a consistent
// point under the tenant lock.
type SnapshotView struct {
	ID              string          `json:"id"`
	Protocol        string          `json:"protocol"`
	Seq             int64           `json:"seq"`
	Converged       bool            `json:"converged"`
	Edges           [][2]int        `json:"edges"`
	States          json.RawMessage `json:"states"`
	Rounds          int             `json:"rounds"`
	Moves           int             `json:"moves"`
	MaxEpochRounds  int             `json:"max_epoch_rounds"`
	EpochsOverBound int             `json:"epochs_over_bound"`
}

// tenant hosts one graph instance behind a single-writer event loop:
// the loop goroutine is the only writer of engine state and the
// journal, handlers are readers via mu, and the bounded cmds channel is
// the backpressure boundary the HTTP layer surfaces as 503.
type tenant struct {
	id        string
	meta      tenantMeta
	dir       string
	bound     int
	slice     int
	snapEvery int64
	// commitEvery is the group-commit window: after the first command of
	// a batch arrives, the loop waits up to this long for more before
	// the single fsync. Zero disables the wait (drain-only batching).
	commitEvery time.Duration
	// fsyncEach forces the pre-group-commit discipline of one fsync per
	// journaled mutation; kept as the benchmark baseline.
	fsyncEach bool

	limiter *tokenBucket

	cmds     chan *command
	quit     chan struct{}
	quitOnce sync.Once
	// dead is closed when the event loop has exited (gracefully or by
	// quarantine); handlers select on it to fail fast instead of waiting
	// for a reply that will never come.
	dead chan struct{}

	// svcCtx is the service's kill context: canceling it stops
	// convergence between rounds and makes the loop exit without
	// flushing, simulating a crash for the recovery tier.
	svcCtx context.Context

	mu sync.RWMutex
	// guarded by mu
	eng tenantEngine
	// guarded by mu
	jr *journal
	// guarded by mu
	//selfstab:durable
	//selfstab:owner loop
	seq int64
	// guarded by mu
	//selfstab:owner loop
	roundsTotal int
	// guarded by mu
	//selfstab:owner loop
	movesTotal int
	// guarded by mu
	//selfstab:owner loop
	converged bool
	// guarded by mu
	//selfstab:owner loop
	legit bool
	// guarded by mu
	//selfstab:owner loop
	checkErr string
	// guarded by mu
	//selfstab:owner loop
	lastEpochRounds int
	// guarded by mu
	//selfstab:owner loop
	maxEpochRounds int
	// guarded by mu
	//selfstab:owner loop
	epochsOverBound int
	// guarded by mu
	//selfstab:owner loop
	quarantined string
	// guarded by mu
	//selfstab:durable
	//selfstab:owner loop
	dedup map[string]int64
	// guarded by mu
	//selfstab:durable
	//selfstab:owner loop
	dedupR dedupRing
	// guarded by mu
	//selfstab:owner loop
	batchHist [8]int64
}

type tenantOptions struct {
	queueDepth  int
	slice       int
	snapEvery   int64
	shards      int
	ratePerSec  float64
	burst       int
	commitEvery time.Duration
	segBytes    int64
	fsyncEach   bool
	now         func() time.Time
}

// newTenant builds (or recovers) a tenant from its directory and starts
// its event loop. Recovery is replay: engine from meta, then either the
// latest snapshot or the deterministic init epoch, then every journal
// entry past the snapshot — each with its full deterministic
// convergence budget, landing byte-identical to the uninterrupted run.
//
// Runs strictly before `go t.loop()` spawns the event loop, so it (and
// the recovery helpers it calls) owns the loop's fields pre-spawn.
//
//selfstab:ownedby tenant.loop
func newTenant(svcCtx context.Context, dir string, meta tenantMeta, opts tenantOptions) (*tenant, error) {
	eng, err := newEngine(meta.Protocol, meta.N, meta.Edges, opts.shards)
	if err != nil {
		return nil, err
	}
	jr, entries, err := openJournal(dir, opts.segBytes)
	if err != nil {
		eng.close()
		return nil, err
	}
	t := &tenant{
		id:          meta.ID,
		meta:        meta,
		dir:         dir,
		bound:       protocolBound(meta.Protocol, meta.N),
		slice:       opts.slice,
		snapEvery:   opts.snapEvery,
		commitEvery: opts.commitEvery,
		fsyncEach:   opts.fsyncEach,
		limiter:     newTokenBucket(opts.ratePerSec, opts.burst, opts.now),
		cmds:        make(chan *command, opts.queueDepth),
		quit:        make(chan struct{}),
		dead:        make(chan struct{}),
		svcCtx:      svcCtx,
		eng:         eng,
		jr:          jr,
		dedup:       make(map[string]int64),
	}
	if err := t.recoverFrom(entries); err != nil {
		t.closeResources()
		return nil, err
	}
	go t.loop()
	return t, nil
}

// recoverFrom replays the tenant to its last acknowledged state. It
// runs before the event loop starts, so there is no contention; the
// helpers it calls still lock, keeping the guarded-field discipline
// uniform.
func (t *tenant) recoverFrom(entries []Mutation) error {
	snap, haveSnap, err := latestSnapshot(t.dir)
	if err != nil {
		return err
	}
	var last int64
	if haveSnap {
		if err := t.restore(snap); err != nil {
			return fmt.Errorf("restore snapshot seq %d: %w", snap.Seq, err)
		}
		last = snap.Seq
	} else {
		// Init epoch: converge the clean starting configuration. This is
		// seq 0 of the deterministic derivation, so it runs the same
		// bounded budget mutations do.
		rounds, moves, stable, err := t.runEpoch(t.svcCtx, t.bound+1)
		if err != nil {
			return err
		}
		t.noteEpoch(rounds, moves, stable, true)
	}
	for _, m := range entries {
		if m.Seq <= last {
			continue
		}
		last = m.Seq
		if err := t.replayEntry(m); err != nil {
			return fmt.Errorf("replay seq %d: %w", m.Seq, err)
		}
		budget, counted := t.bound+1, true
		if m.Op == OpConverge {
			budget, counted = m.Rounds, false
		}
		rounds, moves, stable, err := t.runEpoch(t.svcCtx, budget)
		if err != nil {
			return fmt.Errorf("replay seq %d: %w", m.Seq, err)
		}
		if m.Op == OpConverge {
			// The journaled outcome is authoritative: replay executes the
			// recorded rounds and reproduces the states, but cannot see
			// the stability probe the original run performed.
			stable = m.Stable
		}
		t.noteEpoch(rounds, moves, stable, counted)
	}
	return nil
}

// restore reconciles the engine (built from meta's topology and clean
// states) to a checkpoint.
//
//selfstab:replay
func (t *tenant) restore(snap tenantSnapshot) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	want := make(map[[2]int]bool, len(snap.Edges))
	for _, e := range snap.Edges {
		want[e] = true
	}
	for _, e := range t.eng.edges() {
		if !want[e] {
			t.eng.setLink(graph.NewEdge(graph.NodeID(e[0]), graph.NodeID(e[1])), false)
		}
	}
	for _, e := range snap.Edges {
		t.eng.setLink(graph.NewEdge(graph.NodeID(e[0]), graph.NodeID(e[1])), true)
	}
	if err := t.eng.decodeStates(snap.States); err != nil {
		return err
	}
	t.seq = snap.Seq
	t.roundsTotal = snap.Rounds
	t.movesTotal = snap.Moves
	t.converged = snap.Converged
	t.maxEpochRounds = snap.MaxEpochRounds
	t.epochsOverBound = snap.EpochsOverBound
	for _, de := range snap.DedupKeys {
		remember(t.dedup, &t.dedupR, de.Key, de.Seq)
	}
	if snap.Converged {
		if err := t.eng.check(); err != nil {
			t.checkErr = err.Error()
		} else {
			t.legit = true
		}
	}
	return nil
}

// replayEntry re-applies one journaled mutation during recovery: seq,
// idempotency key, and the topology/state change (convergence follows
// in recoverFrom).
//
//selfstab:replay
func (t *tenant) replayEntry(m Mutation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A journal line can be complete, well-formed JSON and still encode a
	// mutation the live path would have rejected — a corrupted byte can
	// land inside a JSON string or number without breaking the line
	// framing. Re-validate so a poisoned entry fails recovery with an
	// error instead of panicking mid-replay.
	if err := validateMutation(m, t.eng.n()); err != nil {
		return err
	}
	t.seq = m.Seq
	if m.Key != "" {
		remember(t.dedup, &t.dedupR, m.Key, m.Seq)
	}
	return applyMutation(t.eng, m)
}

// loop is the single writer. Each wakeup gathers a batch from the
// bounded queue and processes it with one group commit per contiguous
// run of journalable mutations. It exits on graceful quit (drain queue,
// flush a final checkpoint), service kill (immediately, no flush — the
// journal is already durable), or quarantine after a panic.
func (t *tenant) loop() {
	defer close(t.dead)
	defer t.closeResources()
	for {
		select {
		case <-t.svcCtx.Done():
			return
		case <-t.quit:
			for {
				batch := t.drainQueued()
				if len(batch) == 0 {
					t.flush()
					return
				}
				if !t.handleBatch(batch) {
					return
				}
			}
		case cmd := <-t.cmds:
			if !t.handleBatch(t.gather(cmd)) {
				return
			}
		}
	}
}

// drainQueued empties the bounded queue without blocking.
func (t *tenant) drainQueued() []*command {
	var batch []*command
	for {
		select {
		case cmd := <-t.cmds:
			batch = append(batch, cmd)
		default:
			return batch
		}
	}
}

// gather builds one batch: the command that woke the loop, everything
// already queued behind it, and — when a commit window is configured —
// whatever else arrives within commitEvery. The window is how a
// sustained stream amortizes one fsync over many mutations; its length
// caps the extra latency a lone request can pay.
func (t *tenant) gather(first *command) []*command {
	batch := append([]*command{first}, t.drainQueued()...)
	if t.commitEvery <= 0 {
		return batch
	}
	limit := cap(t.cmds) + 1
	if len(batch) >= limit {
		return batch
	}
	timer := time.NewTimer(t.commitEvery)
	defer timer.Stop()
	for len(batch) < limit {
		select {
		case cmd := <-t.cmds:
			batch = append(batch, cmd)
		case <-timer.C:
			return batch
		case <-t.quit:
			// Shutting down: stop collecting and let the loop drain.
			return batch
		case <-t.svcCtx.Done():
			return batch
		}
	}
	return batch
}

// isBarrier reports whether an op cannot join a group commit: converge
// journals post-hoc (its entry records the rounds actually executed,
// unknowable before running) and chaos panics never journal at all.
// Batching either with write-ahead mutations would let a later seq
// reach the journal before an earlier one, breaking the strictly
// ascending order recovery depends on.
func isBarrier(op string) bool { return op == OpConverge || op == OpChaosPanic }

// handleBatch splits a batch into contiguous runs of journalable
// mutations (group-committed by handleRun) separated by barrier ops
// (processed singly by handle). Commands are replied to strictly in
// arrival order. Returns false when the loop must exit; commands not
// yet replied to are then covered by the closed dead channel.
func (t *tenant) handleBatch(batch []*command) bool {
	for len(batch) > 0 {
		if isBarrier(batch[0].mut.Op) {
			if !t.handle(batch[0]) {
				return false
			}
			batch = batch[1:]
			continue
		}
		n := 1
		if !t.fsyncEach {
			for n < len(batch) && !isBarrier(batch[n].mut.Op) {
				n++
			}
		}
		if !t.handleRun(batch[:n]) {
			return false
		}
		batch = batch[n:]
	}
	return true
}

// pendingCmd is one command of a group-commit run between its prepare
// (seq assigned, entry buffered) and its apply+reply.
type pendingCmd struct {
	cmd *command
	mut Mutation
	res cmdResult
	// done marks commands resolved at prepare time (duplicates and
	// validation failures): nothing was journaled, reply res as-is.
	done bool
}

// handleRun processes one contiguous run of journalable mutations as a
// group commit: every entry is prepared (seq assigned, buffered
// append), then a single fsync makes the whole run durable, and only
// then is anything applied. That keeps the write-ahead invariant
// batch-wide — no mutation's effect exists in memory before its entry
// is durable — at one fsync per run instead of one per entry. A panic
// anywhere quarantines the tenant; a commit failure does too, because a
// partially flushed buffer would corrupt every later append.
func (t *tenant) handleRun(run []*command) (ok bool) {
	var current *command
	defer func() {
		if r := recover(); r != nil {
			t.setQuarantined(fmt.Sprintf("%v", r))
			if current != nil {
				current.reply <- cmdResult{Err: fmt.Errorf("%w: %v", errQuarantined, r)}
			}
			ok = false
		}
	}()
	pend := make([]pendingCmd, 0, len(run))
	for _, cmd := range run {
		current = cmd
		m := cmd.mut
		res, done := t.prepare(&m)
		pend = append(pend, pendingCmd{cmd: cmd, mut: m, res: res, done: done})
	}
	current = nil
	if err := t.commitBatch(); err != nil {
		t.setQuarantined(fmt.Sprintf("journal commit: %v", err))
		for _, p := range pend {
			p.cmd.reply <- cmdResult{Err: fmt.Errorf("%w: journal commit: %v", errQuarantined, err)}
		}
		return false
	}
	// prepare has already advanced t.seq over the whole run, and a
	// checkpoint is labeled with t.seq: taken mid-run it would claim
	// entries not yet applied, and recovery would skip them. So the run
	// checkpoints once, after its last apply, if it crossed a multiple
	// of the cadence.
	first, last := -1, -1
	for i := range pend {
		if !pend[i].done {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	ckpt := last >= 0 && t.crossesSnapshot(pend[first].mut.Seq-1, pend[last].mut.Seq)
	for i := range pend {
		p := &pend[i]
		current = p.cmd
		if p.done {
			p.cmd.reply <- p.res
			continue
		}
		t.applyLocked(p.mut)
		rounds, moves, stable, cerr := t.runEpoch(t.svcCtx, t.bound+1)
		if t.svcCtx.Err() != nil {
			// Killed mid-epoch: the in-memory state is off the
			// deterministic trajectory and will be discarded; recovery
			// replays the journal. Do not checkpoint.
			p.cmd.reply <- cmdResult{Seq: p.mut.Seq, Err: t.svcCtx.Err()}
			return false
		}
		p.cmd.reply <- t.finish(p.mut, rounds, moves, stable, true, ckpt && i == last, cerr)
	}
	return true
}

// handle processes one barrier command (converge or chaos panic). A
// panic anywhere in the pipeline quarantines the tenant: the panic
// value is recorded, the waiting client gets an error, and the loop
// exits — the daemon keeps serving every other tenant.
func (t *tenant) handle(cmd *command) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			t.setQuarantined(fmt.Sprintf("%v", r))
			cmd.reply <- cmdResult{Err: fmt.Errorf("%w: %v", errQuarantined, r)}
			ok = false
		}
	}()
	m := cmd.mut
	if m.Op == OpChaosPanic {
		// Deliberate crash for the chaos tier. Never journaled: a replay
		// must recover the tenant, not re-crash it.
		panic("chaos: injected panic via API")
	}
	res, done := t.prepare(&m)
	if done {
		cmd.reply <- res
		return true
	}

	ctx := t.svcCtx
	if cmd.ctx != nil {
		// A converge request honors its deadline (unlike mutations):
		// truncation is journaled with the rounds actually executed,
		// so replay reproduces it.
		mctx, cancel := context.WithCancel(cmd.ctx)
		defer cancel()
		stop := context.AfterFunc(t.svcCtx, cancel)
		defer stop()
		ctx = mctx
	}
	rounds, moves, stable, cerr := t.runEpoch(ctx, m.Rounds)
	if t.svcCtx.Err() != nil {
		// Killed mid-epoch: see handleRun.
		cmd.reply <- cmdResult{Seq: m.Seq, Err: t.svcCtx.Err()}
		return false
	}
	// Journal the converge entry post-hoc with the outcome it actually
	// had, committed (fsynced) before the client is acknowledged.
	m.Rounds, m.Stable = rounds, stable
	if err := t.journalAppend(m); err != nil {
		t.setQuarantined(fmt.Sprintf("journal commit: %v", err))
		cmd.reply <- cmdResult{Seq: m.Seq, Err: fmt.Errorf("%w: journal commit: %v", errQuarantined, err)}
		return false
	}
	cmd.reply <- t.finish(m, rounds, moves, stable, false, t.crossesSnapshot(m.Seq-1, m.Seq), cerr)
	return true
}

// prepare assigns the sequence number and buffers the journal entry for
// the mutation (write-ahead: the caller must commit — fsync — before
// applying it). Converge entries skip the append here and are journaled
// post-hoc in handle with the rounds they actually executed.
func (t *tenant) prepare(m *Mutation) (cmdResult, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m.Key != "" {
		if s, dup := t.dedup[m.Key]; dup {
			return cmdResult{Seq: s, Duplicate: true, Converged: t.converged, Legit: t.legit, CheckErr: t.checkErr}, true
		}
	}
	if err := validateMutation(*m, t.eng.n()); err != nil {
		return cmdResult{Err: err}, true
	}
	//lint:ignore walorder seq is assigned before the buffered append so the entry carries it; the append-failure path rolls it back, and commitBatch fsyncs the run before the first apply
	t.seq++
	m.Seq = t.seq
	if m.Op == OpCorrupt {
		// Per-mutation corruption stream: a function of (tenant seed,
		// seq), so replaying the journal redraws identical states.
		m.Seed = deriveSeed(t.meta.Seed, "mutation", int(m.Seq))
	}
	if m.Op != OpConverge {
		if err := t.jr.append(*m); err != nil {
			t.seq--
			return cmdResult{Err: err}, true
		}
	}
	if m.Key != "" {
		remember(t.dedup, &t.dedupR, m.Key, m.Seq)
	}
	return cmdResult{Seq: m.Seq}, false
}

// commitBatch makes every entry buffered by the run's prepares durable
// with one fsync — the batch-wide write-ahead point — and folds the
// realized batch size into the histogram. A clean journal commits for
// free, so runs of pure duplicates/rejects cost nothing.
//
//selfstab:journal
func (t *tenant) commitBatch() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.jr.pendingEntries()
	if err := t.jr.commit(); err != nil {
		return err
	}
	if n > 0 {
		t.batchHist[batchBucket(n)]++
	}
	return nil
}

// batchBucket maps a realized batch size onto the varz histogram
// buckets 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64.
func batchBucket(n int) int {
	b := 0
	for limit := 1; b < 7 && n > limit; b++ {
		limit <<= 1
	}
	return b
}

// applyLocked applies one prepared entry's topology/state change.
// Callers invoke it strictly after commitBatch has fsynced the run —
// the entry is durable before its effect exists in memory. prepare
// validated the mutation, so a failure here means the engine and the
// journal have diverged; quarantine via panic rather than ack.
//
//selfstab:applies
func (t *tenant) applyLocked(m Mutation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := applyMutation(t.eng, m); err != nil {
		panic(fmt.Sprintf("apply journaled mutation seq %d: %v", m.Seq, err))
	}
}

// runEpoch drives convergence in short slices, releasing the lock
// between slices so reads stay responsive during long epochs. The
// sliced trajectory is pinned byte-identical to a one-shot run by
// TestConvergeCtxChunkedMatchesOneShot in internal/sim.
func (t *tenant) runEpoch(ctx context.Context, budget int) (rounds, moves int, stable bool, err error) {
	for rounds < budget {
		sl := t.slice
		if sl > budget-rounds {
			sl = budget - rounds
		}
		t.mu.Lock()
		r, mv, st, cerr := t.eng.converge(ctx, sl)
		t.mu.Unlock()
		rounds += r
		moves += mv
		if st {
			return rounds, moves, true, nil
		}
		if cerr != nil {
			return rounds, moves, false, cerr
		}
	}
	return rounds, moves, false, nil
}

// finish updates epoch accounting and, when ckpt is set, checkpoints.
// Callers set ckpt only when m is the last applied mutation, so the
// checkpoint's seq label covers exactly the applied state. Only the
// event-loop goroutine calls it, so the lock/unlock seams between the
// steps admit readers but never writers.
func (t *tenant) finish(m Mutation, rounds, moves int, stable, counted, ckpt bool, cerr error) cmdResult {
	t.noteEpoch(rounds, moves, stable, counted)
	res := t.epochResult(m.Seq, rounds)
	if cerr != nil {
		res.Err = cerr
		return res
	}
	if ckpt {
		if err := t.checkpoint(); err != nil {
			res.Err = err
		}
	}
	return res
}

// crossesSnapshot reports whether the seqs (from, to] include a multiple
// of the snapshot cadence.
func (t *tenant) crossesSnapshot(from, to int64) bool {
	return t.snapEvery > 0 && to/t.snapEvery > from/t.snapEvery
}

// journalAppend is the locked append+commit seam for post-hoc
// (OpConverge) journal entries: one entry, one fsync, durable before
// the acknowledgement.
//
//selfstab:journal
func (t *tenant) journalAppend(m Mutation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.jr.append(m); err != nil {
		return err
	}
	return t.jr.commit()
}

// noteEpoch folds one epoch's outcome into the tenant counters.
// counted=false for explicit converge requests, whose budget is
// client-chosen and therefore says nothing about the paper's bound.
func (t *tenant) noteEpoch(rounds, moves int, stable, counted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roundsTotal += rounds
	t.movesTotal += moves
	t.lastEpochRounds = rounds
	t.converged = stable
	if counted {
		if rounds > t.maxEpochRounds {
			t.maxEpochRounds = rounds
		}
		if !stable {
			t.epochsOverBound++
		}
	}
	t.legit = false
	t.checkErr = ""
	if stable {
		if err := t.eng.check(); err != nil {
			t.checkErr = err.Error()
		} else {
			t.legit = true
		}
	}
}

func (t *tenant) epochResult(seq int64, rounds int) cmdResult {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return cmdResult{Seq: seq, Rounds: rounds, Converged: t.converged, Legit: t.legit, CheckErr: t.checkErr}
}

// checkpoint writes a deterministic snapshot of the current
// (mutation-boundary) state, then retires every journal segment the
// snapshot wholly covers.
func (t *tenant) checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.quarantined != "" {
		return nil
	}
	// The ring yields the window oldest-first, i.e. ascending seq: live
	// inserts follow seq assignment and restore re-inserts in stored
	// order.
	keys := t.dedupR.entries()
	if err := writeSnapshot(t.dir, tenantSnapshot{
		Seq:             t.seq,
		Rounds:          t.roundsTotal,
		Moves:           t.movesTotal,
		Converged:       t.converged,
		EpochsOverBound: t.epochsOverBound,
		MaxEpochRounds:  t.maxEpochRounds,
		Edges:           t.eng.edges(),
		States:          t.eng.encodeStates(),
		DedupKeys:       keys,
	}); err != nil {
		return err
	}
	// Replay now starts from this snapshot: segments whose entries all
	// fall at or before it can never be read again.
	return t.jr.compact(t.seq)
}

// flush writes a final checkpoint on graceful shutdown, unless a kill
// raced in (a killed tenant's state is mid-epoch and must not be
// checkpointed; the journal already has everything).
func (t *tenant) flush() {
	if t.svcCtx.Err() != nil {
		return
	}
	t.checkpoint()
}

func (t *tenant) closeResources() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jr.close()
	t.eng.close()
}

func (t *tenant) setQuarantined(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.quarantined = reason
}

// close asks the event loop to drain and exit; safe to call repeatedly.
func (t *tenant) close() {
	t.quitOnce.Do(func() { close(t.quit) })
}

// --- reads (any goroutine) ---

func (t *tenant) status() TenantStatus {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TenantStatus{
		ID:              t.id,
		Protocol:        t.eng.protocol(),
		N:               t.eng.n(),
		M:               t.eng.m(),
		Seq:             t.seq,
		Rounds:          t.roundsTotal,
		Moves:           t.movesTotal,
		Converged:       t.converged,
		Legit:           t.legit,
		CheckError:      t.checkErr,
		Bound:           t.bound,
		LastEpochRounds: t.lastEpochRounds,
		MaxEpochRounds:  t.maxEpochRounds,
		EpochsOverBound: t.epochsOverBound,
		Quarantined:     t.quarantined,
		QueueLen:        len(t.cmds),
		QueueCap:        cap(t.cmds),
	}
}

func (t *tenant) snapshotView() SnapshotView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return SnapshotView{
		ID:              t.id,
		Protocol:        t.eng.protocol(),
		Seq:             t.seq,
		Converged:       t.converged,
		Edges:           t.eng.edges(),
		States:          t.eng.encodeStates(),
		Rounds:          t.roundsTotal,
		Moves:           t.movesTotal,
		MaxEpochRounds:  t.maxEpochRounds,
		EpochsOverBound: t.epochsOverBound,
	}
}

func (t *tenant) membershipView() json.RawMessage {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.eng.membership()
}

func (t *tenant) node(v int) (NodeInfo, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if v < 0 || v >= t.eng.n() {
		return NodeInfo{}, fmt.Errorf("node %d out of range [0, %d)", v, t.eng.n())
	}
	return t.eng.nodeInfo(graph.NodeID(v)), nil
}

// journalVars snapshots the tenant's journal observability counters for
// varz.
func (t *tenant) journalVars() TenantJournalVars {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := t.jr.stats()
	return TenantJournalVars{
		Appends:           st.appends,
		Fsyncs:            st.fsyncs,
		Batches:           st.commits,
		Segments:          st.segments,
		ReplaySuffixBytes: st.liveBytes,
		BatchSizes:        t.batchHist,
	}
}

// --- mutation mechanics shared by the live path and replay ---

// dedupRing is the fixed-capacity idempotency window: a circular buffer
// that overwrites the oldest entry in place once full, so sustained
// streams reuse one backing array instead of the previous
// evict-front+append slice, which reallocated and kept evicted keys
// reachable through the old backing array.
type dedupRing struct {
	buf []dedupEntry
	// head indexes the oldest entry; entries occupy head..head+n-1 mod
	// len(buf).
	head int
	n    int
}

// push records e, returning the entry it displaced when the window was
// already full.
func (r *dedupRing) push(e dedupEntry) (evicted dedupEntry, full bool) {
	if r.buf == nil {
		r.buf = make([]dedupEntry, dedupWindow)
	}
	if r.n == len(r.buf) {
		evicted = r.buf[r.head]
		r.buf[r.head] = e
		r.head = (r.head + 1) % len(r.buf)
		return evicted, true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
	return dedupEntry{}, false
}

// entries returns the window oldest-first.
func (r *dedupRing) entries() []dedupEntry {
	out := make([]dedupEntry, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// remember records key→seq in the dedup window, evicting the oldest
// key in place when the ring is full. The caller owns the lock guarding
// both structures and passes them in explicitly.
func remember(dedup map[string]int64, r *dedupRing, key string, seq int64) {
	if old, full := r.push(dedupEntry{Key: key, Seq: seq}); full {
		delete(dedup, old.Key)
	}
	dedup[key] = seq
}

func validateMutation(m Mutation, n int) error {
	inRange := func(v *int) bool { return v != nil && *v >= 0 && *v < n }
	switch m.Op {
	case OpAddEdge, OpRemoveEdge:
		if !inRange(m.U) || !inRange(m.V) || *m.U == *m.V {
			return fmt.Errorf("%s needs distinct u, v in [0, %d)", m.Op, n)
		}
	case OpAddNode:
		if !inRange(m.U) {
			return fmt.Errorf("%s needs u in [0, %d)", m.Op, n)
		}
		for _, w := range m.Nodes {
			if w < 0 || w >= n || w == *m.U {
				return fmt.Errorf("%s neighbor %d out of range", m.Op, w)
			}
		}
	case OpRemoveNode:
		if !inRange(m.U) {
			return fmt.Errorf("%s needs u in [0, %d)", m.Op, n)
		}
	case OpCorrupt:
		if len(m.Nodes) == 0 {
			return fmt.Errorf("%s needs a non-empty node list", m.Op)
		}
		for _, w := range m.Nodes {
			if w < 0 || w >= n {
				return fmt.Errorf("%s node %d out of range [0, %d)", m.Op, w, n)
			}
		}
	case OpConverge:
		if m.Rounds < 0 {
			return fmt.Errorf("%s rounds must be >= 0", m.Op)
		}
	case OpChaosPanic:
		// handled before prepare; listed for exhaustiveness
	default:
		return fmt.Errorf("unknown op %q", m.Op)
	}
	return nil
}

// applyMutation performs the topology/state change for one journal
// entry. Node removal in the fixed-universe graph model means cutting
// every incident link (the node keeps evaluating but sees no
// neighbors); addition re-attaches explicit links.
//
//selfstab:applies
func applyMutation(eng tenantEngine, m Mutation) error {
	switch m.Op {
	case OpAddEdge:
		eng.setLink(graph.NewEdge(graph.NodeID(*m.U), graph.NodeID(*m.V)), true)
	case OpRemoveEdge:
		eng.setLink(graph.NewEdge(graph.NodeID(*m.U), graph.NodeID(*m.V)), false)
	case OpAddNode:
		u := graph.NodeID(*m.U)
		for _, w := range m.Nodes {
			eng.setLink(graph.NewEdge(u, graph.NodeID(w)), true)
		}
	case OpRemoveNode:
		u := graph.NodeID(*m.U)
		nbrs := append([]graph.NodeID(nil), eng.neighbors(u)...)
		for _, w := range nbrs {
			eng.setLink(graph.NewEdge(u, w), false)
		}
	case OpCorrupt:
		nodes := make([]graph.NodeID, len(m.Nodes))
		for i, w := range m.Nodes {
			nodes[i] = graph.NodeID(w)
		}
		eng.corrupt(nodes, m.Seed)
	case OpConverge:
		// no topology/state change; the epoch itself is the effect
	case OpChaosPanic:
		// never journaled, never applied; listed for exhaustiveness
	default:
		return fmt.Errorf("unknown op %q", m.Op)
	}
	return nil
}
