package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// mutationScript is a fixed, representative burst: edge churn, node
// crash/resurrect, state corruption, explicit converge.
func mutationScript(n int) []Mutation {
	return []Mutation{
		{Op: OpAddEdge, U: intp(0), V: intp(n - 1), Key: "s1"},
		{Op: OpCorrupt, Nodes: []int{1, 2, 3}, Key: "s2"},
		{Op: OpRemoveNode, U: intp(n / 2), Key: "s3"},
		{Op: OpRemoveEdge, U: intp(0), V: intp(1), Key: "s4"},
		{Op: OpAddNode, U: intp(n / 2), Nodes: []int{n/2 - 1, n/2 + 1}, Key: "s5"},
		{Op: OpCorrupt, Nodes: []int{0, n - 1}, Key: "s6"},
		{Op: OpAddEdge, U: intp(1), V: intp(3), Key: "s7"},
		{Op: OpCorrupt, Nodes: []int{4}, Key: "s8"},
	}
}

func applyScript(t *testing.T, h http.Handler, id string, script []Mutation) []MutationResult {
	t.Helper()
	results := make([]MutationResult, 0, len(script))
	for i, m := range script {
		var res MutationResult
		code, _ := doJSON(t, h, "POST", "/v1/tenants/"+id+"/mutations", m, &res)
		if code != http.StatusOK {
			t.Fatalf("script step %d (%s): status %d", i, m.Op, code)
		}
		results = append(results, res)
	}
	return results
}

func snapshotJSON(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	var view SnapshotView
	if code, _ := doJSON(t, h, "GET", "/v1/tenants/"+id+"/snapshot", nil, &view); code != http.StatusOK {
		t.Fatalf("snapshot read: status %d", code)
	}
	raw, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestKillRecoveryByteIdentical is the crash-recovery acceptance pin:
// after an abrupt Kill, reopening from the data dir replays
// snapshot + journal suffix to the exact acknowledged pre-crash state —
// byte-identical both to the pre-crash view and to an uninterrupted
// twin service that ran the same script.
func TestKillRecoveryByteIdentical(t *testing.T) {
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		t.Run(proto, func(t *testing.T) {
			const n = 12
			script := mutationScript(n)

			// Twin A: runs the script, gets killed, reopens.
			dirA := t.TempDir()
			// SnapshotEvery 3 exercises the snapshot+suffix path (the
			// last snapshot covers a strict prefix of the journal).
			svcA, err := Open(Options{DataDir: dirA, SnapshotEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			hA := svcA.Handler()
			pathTenant(t, hA, "x", proto, n)
			applyScript(t, hA, "x", script)
			preCrash := snapshotJSON(t, hA, "x")
			svcA.Kill()

			// Twin B: same script, clean shutdown, never crashes.
			dirB := t.TempDir()
			svcB := newTestService(t, Options{DataDir: dirB, SnapshotEvery: 3})
			hB := svcB.Handler()
			pathTenant(t, hB, "x", proto, n)
			applyScript(t, hB, "x", script)
			uninterrupted := snapshotJSON(t, hB, "x")

			if string(preCrash) != string(uninterrupted) {
				t.Fatalf("pre-crash state diverged from uninterrupted twin:\nA: %s\nB: %s", preCrash, uninterrupted)
			}

			// Reopen A from its data dir: recovery must land exactly on
			// the acknowledged pre-crash state.
			svcA2 := newTestService(t, Options{DataDir: dirA, SnapshotEvery: 3})
			hA2 := svcA2.Handler()
			recovered := snapshotJSON(t, hA2, "x")
			if string(recovered) != string(preCrash) {
				t.Fatalf("recovered state != pre-crash state:\npre:  %s\npost: %s", preCrash, recovered)
			}

			// The recovered tenant still rejects duplicates of pre-crash
			// requests (dedup window survives via snapshot + journal).
			var res MutationResult
			code, _ := doJSON(t, hA2, "POST", "/v1/tenants/x/mutations", script[len(script)-1], &res)
			if code != http.StatusOK || !res.Duplicate {
				t.Fatalf("pre-crash idempotency key not honored after recovery: code %d res %+v", code, res)
			}

			// And it keeps serving: one more mutation converges in bound.
			var st TenantStatus
			doJSON(t, hA2, "GET", "/v1/tenants/x", nil, &st)
			code, _ = doJSON(t, hA2, "POST", "/v1/tenants/x/mutations",
				Mutation{Op: OpCorrupt, Nodes: []int{2}}, &res)
			if code != http.StatusOK || !res.Converged || res.Rounds > st.Bound {
				t.Fatalf("post-recovery mutation: code %d res %+v bound %d", code, res, st.Bound)
			}
		})
	}
}

// TestTornJournalLineDiscarded pins crash-mid-append behavior: a torn
// final journal line (never acknowledged) is dropped on open and the
// tenant recovers to the last complete entry.
func TestTornJournalLineDiscarded(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	pathTenant(t, h, "torn", ProtocolSMM, 8)
	applyScript(t, h, "torn", mutationScript(8)[:3])
	want := snapshotJSON(t, h, "torn")
	svc.Kill()

	jp := activeSegmentPath(t, tenantDir(dir, "torn"))
	f, err := os.OpenFile(jp, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial line with no newline.
	if _, err := f.WriteString(`{"seq":99,"op":"add_ed`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2 := newTestService(t, Options{DataDir: dir})
	h2 := svc2.Handler()
	got := snapshotJSON(t, h2, "torn")
	if string(got) != string(want) {
		t.Fatalf("torn journal changed recovered state:\nwant %s\ngot  %s", want, got)
	}
	var st TenantStatus
	doJSON(t, h2, "GET", "/v1/tenants/torn", nil, &st)
	if st.Seq != 3 {
		t.Fatalf("recovered seq = %d, want 3", st.Seq)
	}
	// The truncated journal must accept appends again.
	var res MutationResult
	if code, _ := doJSON(t, h2, "POST", "/v1/tenants/torn/mutations",
		Mutation{Op: OpAddEdge, U: intp(0), V: intp(4)}, &res); code != http.StatusOK || res.Seq != 4 {
		t.Fatalf("append after truncation: code %d res %+v", code, res)
	}
}

// activeSegmentPath returns the highest-numbered journal segment file
// in a tenant directory — the one a crash can tear.
func activeSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	nums, err := segmentNums(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) == 0 {
		t.Fatalf("no journal segments in %s", dir)
	}
	return segmentPath(dir, nums[len(nums)-1])
}

// TestGroupCommitBatchesFsyncs pins the amortization mechanics: a burst
// of mutations queued inside one commit window is journaled with a
// single fsync, and the varz counters (appends, fsyncs, batches, the
// batch-size histogram) report exactly that.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	const burst = 16
	dir := t.TempDir()
	meta := tenantMeta{ID: "batch", Protocol: ProtocolSMM, N: 8, Seed: 7}
	tn, err := newTenant(context.Background(), dir, meta, tenantOptions{
		queueDepth: burst + 4,
		slice:      64,
		// A window far longer than the enqueue loop below, so all 16
		// commands land in one gather and therefore one commit.
		commitEvery: 500 * time.Millisecond,
		now:         time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tn.close(); <-tn.dead }()

	cmds := make([]*command, burst)
	for i := range cmds {
		cmds[i] = &command{
			mut:   Mutation{Op: OpCorrupt, Nodes: []int{i % 8}},
			reply: make(chan cmdResult, 1),
		}
		tn.cmds <- cmds[i]
	}
	for i, cmd := range cmds {
		res := <-cmd.reply
		if res.Err != nil {
			t.Fatalf("command %d: %v", i, res.Err)
		}
		if res.Seq != int64(i+1) {
			t.Fatalf("command %d: seq %d, want %d (batch replies out of order)", i, res.Seq, i+1)
		}
	}

	jv := tn.journalVars()
	if jv.Appends != burst {
		t.Fatalf("appends = %d, want %d", jv.Appends, burst)
	}
	if jv.Fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want 1 (burst split across commits)", jv.Fsyncs)
	}
	if jv.Batches != 1 {
		t.Fatalf("batches = %d, want 1", jv.Batches)
	}
	// 16 entries land in histogram bucket ≤16 (index 4).
	want := [8]int64{4: 1}
	if jv.BatchSizes != want {
		t.Fatalf("batch_size_hist = %v, want %v", jv.BatchSizes, want)
	}
}

// TestCheckpointInsideGroupCommitRun pins the checkpoint label inside a
// group-commit run: prepare assigns seqs to the whole run before the
// first apply, so a checkpoint taken mid-run must be labeled (snapshot
// seq, dedup window, compaction bound) with the last applied mutation,
// not the last prepared one. Ten edge additions land in one run across
// two snapshot multiples; after a kill, recovery must replay every
// acknowledged one.
func TestCheckpointInsideGroupCommitRun(t *testing.T) {
	const burst = 10
	dir := t.TempDir()
	meta := tenantMeta{ID: "ckpt", Protocol: ProtocolSMM, N: 16, Seed: 3}
	opts := tenantOptions{
		queueDepth:  burst + 4,
		slice:       64,
		snapEvery:   4,
		commitEvery: 500 * time.Millisecond,
		segBytes:    64 << 20,
		now:         time.Now,
	}
	ctx, kill := context.WithCancel(context.Background())
	tn, err := newTenant(ctx, dir, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*command, burst)
	for i := range cmds {
		u, v := i, i+1
		cmds[i] = &command{mut: Mutation{Op: OpAddEdge, U: &u, V: &v, Key: fmt.Sprintf("k%d", i)}, reply: make(chan cmdResult, 1)}
		tn.cmds <- cmds[i]
	}
	for i, cmd := range cmds {
		if res := <-cmd.reply; res.Err != nil || res.Seq != int64(i+1) {
			t.Fatalf("command %d: seq %d, err %v", i, res.Seq, res.Err)
		}
	}
	if jv := tn.journalVars(); jv.Batches != 1 {
		t.Fatalf("batches = %d, want the burst in one group-commit run", jv.Batches)
	}
	want := tn.status()
	wantSnap, err := json.Marshal(tn.snapshotView())
	if err != nil {
		t.Fatal(err)
	}
	kill()
	<-tn.dead

	re, err := newTenant(context.Background(), dir, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { re.close(); <-re.dead }()
	got := re.status()
	if got.Seq != burst || got.M != burst {
		t.Fatalf("recovered seq %d with %d edges, want seq %d with %d", got.Seq, got.M, burst, burst)
	}
	if got != want {
		t.Fatalf("recovered status diverged:\nwant %+v\ngot  %+v", want, got)
	}
	gotSnap, err := json.Marshal(re.snapshotView())
	if err != nil {
		t.Fatal(err)
	}
	if string(gotSnap) != string(wantSnap) {
		t.Fatalf("recovered snapshot diverged:\nwant %s\ngot  %s", wantSnap, gotSnap)
	}
	// The dedup window must not claim keys the snapshot does not cover:
	// every key replays as a duplicate of its own seq.
	for i := 0; i < burst; i++ {
		u, v := i, i+1
		cmd := &command{mut: Mutation{Op: OpAddEdge, U: &u, V: &v, Key: fmt.Sprintf("k%d", i)}, reply: make(chan cmdResult, 1)}
		re.cmds <- cmd
		if res := <-cmd.reply; !res.Duplicate || res.Seq != int64(i+1) {
			t.Fatalf("key k%d after recovery: %+v, want duplicate of seq %d", i, res, i+1)
		}
	}
}

// TestSegmentRotationAndCompaction pins the journal lifecycle: tiny
// segments rotate under a mutation stream, a checkpoint retires every
// sealed segment it covers, and a post-compaction kill still recovers
// byte-identical state.
func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// No checkpoints in phase one: every entry stays replayable, so
	// rotation must leave several live segments.
	svc, err := Open(Options{DataDir: dir, SegmentBytes: 150, SnapshotEvery: -1, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	pathTenant(t, h, "seg", ProtocolSMM, 8)
	applyScript(t, h, "seg", mutationScript(8))
	want := snapshotJSON(t, h, "seg")
	tdir := tenantDir(dir, "seg")
	tn, err := svc.Tenant("seg")
	if err != nil {
		t.Fatal(err)
	}
	if jv := tn.journalVars(); jv.Segments < 3 {
		t.Fatalf("segments = %d after 8 mutations at 150-byte rotation, want >= 3", jv.Segments)
	}
	svc.Kill()
	nums, err := segmentNums(tdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) < 3 {
		t.Fatalf("on-disk segments = %v, want >= 3", nums)
	}

	// Reopen with per-mutation checkpoints: the next mutation snapshots
	// at its seq, which covers every sealed segment — compaction must
	// retire them all.
	svc2 := newTestService(t, Options{DataDir: dir, SegmentBytes: 150, SnapshotEvery: 1, CommitInterval: -1})
	h2 := svc2.Handler()
	if got := snapshotJSON(t, h2, "seg"); string(got) != string(want) {
		t.Fatalf("multi-segment recovery diverged:\nwant %s\ngot  %s", want, got)
	}
	var res MutationResult
	if code, _ := doJSON(t, h2, "POST", "/v1/tenants/seg/mutations",
		Mutation{Op: OpCorrupt, Nodes: []int{1}}, &res); code != http.StatusOK || res.Seq != 9 {
		t.Fatalf("post-recovery mutation: code %d res %+v", code, res)
	}
	after, err := segmentNums(tdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(nums) || len(after) > 2 {
		t.Fatalf("compaction kept %v (was %v); want at most the live suffix", after, nums)
	}
	postCompact := snapshotJSON(t, h2, "seg")

	// Post-compaction kill: snapshot + surviving suffix must still
	// replay to the acknowledged state.
	svc2.Kill()
	svc3 := newTestService(t, Options{DataDir: dir, SegmentBytes: 150, CommitInterval: -1})
	if got := snapshotJSON(t, svc3.Handler(), "seg"); string(got) != string(postCompact) {
		t.Fatalf("post-compaction recovery diverged:\nwant %s\ngot  %s", postCompact, got)
	}
}

// TestKillBetweenRotationAndCheckpoint pins the window the segmented
// journal opens: segments have rotated but no checkpoint has retired
// them, the process dies, and recovery must concatenate the full
// segment chain — landing byte-identical to an uninterrupted twin.
func TestKillBetweenRotationAndCheckpoint(t *testing.T) {
	script := mutationScript(10)

	dirA := t.TempDir()
	// SnapshotEvery -1: rotation happens (tiny segments) but no
	// checkpoint ever runs, so the kill lands squarely between the two.
	svcA, err := Open(Options{DataDir: dirA, SegmentBytes: 150, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	hA := svcA.Handler()
	pathTenant(t, hA, "rot", ProtocolSMI, 10)
	applyScript(t, hA, "rot", script)
	preCrash := snapshotJSON(t, hA, "rot")
	nums, err := segmentNums(tenantDir(dirA, "rot"))
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) < 2 {
		t.Fatalf("kill window needs rotated segments, got %v", nums)
	}
	svcA.Kill()

	dirB := t.TempDir()
	svcB := newTestService(t, Options{DataDir: dirB, SegmentBytes: 150, SnapshotEvery: -1})
	hB := svcB.Handler()
	pathTenant(t, hB, "rot", ProtocolSMI, 10)
	applyScript(t, hB, "rot", script)
	uninterrupted := snapshotJSON(t, hB, "rot")
	if string(preCrash) != string(uninterrupted) {
		t.Fatalf("pre-crash state diverged from uninterrupted twin:\nA: %s\nB: %s", preCrash, uninterrupted)
	}

	svcA2 := newTestService(t, Options{DataDir: dirA, SegmentBytes: 150, SnapshotEvery: -1})
	if got := snapshotJSON(t, svcA2.Handler(), "rot"); string(got) != string(preCrash) {
		t.Fatalf("recovery across rotated, uncompacted segments diverged:\nwant %s\ngot  %s", preCrash, got)
	}
}

// TestSegmentGapFailsRecovery pins loud failure over silent data loss:
// a deleted middle segment must abort recovery with a segment-gap
// error, not replay around the hole.
func TestSegmentGapFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Options{DataDir: dir, SegmentBytes: 150, SnapshotEvery: -1, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	pathTenant(t, h, "gap", ProtocolSMM, 8)
	applyScript(t, h, "gap", mutationScript(8))
	tdir := tenantDir(dir, "gap")
	nums, err := segmentNums(tdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) < 3 {
		t.Fatalf("need >= 3 segments to delete a middle one, got %v", nums)
	}
	svc.Kill()

	if err := os.Remove(segmentPath(tdir, nums[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: dir, SegmentBytes: 150}); err == nil ||
		!strings.Contains(err.Error(), "segment gap") {
		t.Fatalf("Open with a missing middle segment: err=%v, want a segment-gap failure", err)
	}
}

// TestSegmentOutOfOrderFails pins the cross-segment sequence check: two
// sealed segments with swapped contents (forged or misnumbered files)
// must abort recovery.
func TestSegmentOutOfOrderFails(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Options{DataDir: dir, SegmentBytes: 150, SnapshotEvery: -1, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	pathTenant(t, h, "ooo", ProtocolSMM, 8)
	applyScript(t, h, "ooo", mutationScript(8))
	tdir := tenantDir(dir, "ooo")
	nums, err := segmentNums(tdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) < 3 {
		t.Fatalf("need >= 3 segments to swap two sealed ones, got %v", nums)
	}
	svc.Kill()

	a, err := os.ReadFile(segmentPath(tdir, nums[0]))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segmentPath(tdir, nums[1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(tdir, nums[0]), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(tdir, nums[1]), a, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: dir, SegmentBytes: 150}); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Fatalf("Open with swapped sealed segments: err=%v, want an out-of-order failure", err)
	}
}

// TestRecoveryAcrossManyTenants pins deterministic multi-tenant
// startup: several tenants with different protocols all recover.
func TestRecoveryAcrossManyTenants(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Options{DataDir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	views := map[string][]byte{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("m%d", i)
		proto := ProtocolSMM
		if i%2 == 1 {
			proto = ProtocolSMI
		}
		pathTenant(t, h, id, proto, 6+i)
		applyScript(t, h, id, mutationScript(6 + i)[:4])
		views[id] = snapshotJSON(t, h, id)
	}
	svc.Kill()

	svc2 := newTestService(t, Options{DataDir: dir, SnapshotEvery: 2})
	h2 := svc2.Handler()
	ids := svc2.TenantIDs()
	if len(ids) != 4 {
		t.Fatalf("recovered %d tenants, want 4: %v", len(ids), ids)
	}
	for id, want := range views {
		got := snapshotJSON(t, h2, id)
		if string(got) != string(want) {
			t.Fatalf("tenant %s diverged after recovery:\nwant %s\ngot  %s", id, want, got)
		}
	}
}

// TestConvergeEndpointJournaledTruncation pins the post-hoc journaling
// of converge epochs: a converge with a tiny round budget lands in the
// journal with the rounds it actually ran, and replay reproduces the
// truncated state exactly.
func TestConvergeEndpointJournaledTruncation(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	pathTenant(t, h, "c", ProtocolSMM, 10)

	// Corrupt widely, then converge with a budget of 1 round — far too
	// small, leaving the tenant mid-trajectory.
	var res MutationResult
	doJSON(t, h, "POST", "/v1/tenants/c/mutations",
		Mutation{Op: OpCorrupt, Nodes: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}, &res)

	code, _ := doJSON(t, h, "POST", "/v1/tenants/c/converge", convergeRequest{Rounds: 1}, &res)
	if code != http.StatusOK {
		t.Fatalf("converge: status %d", code)
	}
	want := snapshotJSON(t, h, "c")
	svc.Kill()

	svc2 := newTestService(t, Options{DataDir: dir})
	got := snapshotJSON(t, svc2.Handler(), "c")
	if string(got) != string(want) {
		t.Fatalf("truncated converge not reproduced by replay:\nwant %s\ngot  %s", want, got)
	}
}

// TestCloseDrainsQueuedWork pins graceful-shutdown semantics: commands
// already queued when Close begins are processed, journaled, and
// answered before the loops exit.
func TestCloseDrainsQueuedWork(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	pathTenant(t, h, "drain", ProtocolSMM, 6)
	tn, err := svc.Tenant("drain")
	if err != nil {
		t.Fatal(err)
	}
	// Queue directly so the command is provably pending when Close runs.
	cmd := &command{mut: Mutation{Op: OpAddEdge, U: intp(0), V: intp(3)}, reply: make(chan cmdResult, 1)}
	tn.cmds <- cmd
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case res := <-cmd.reply:
		if res.Err != nil || !res.Converged {
			t.Fatalf("drained command result: %+v", res)
		}
	default:
		t.Fatal("queued command was not drained before shutdown")
	}

	// The drained mutation is durable: reopening shows it.
	svc2 := newTestService(t, Options{DataDir: dir})
	var st TenantStatus
	doJSON(t, svc2.Handler(), "GET", "/v1/tenants/drain", nil, &st)
	if st.Seq != 1 {
		t.Fatalf("drained mutation lost: seq %d, want 1", st.Seq)
	}
}
