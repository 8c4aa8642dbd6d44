package core

import (
	"fmt"
	"math/rand"

	"selfstab/internal/graph"
)

// Pointer is the single per-node variable of Algorithm SMM: Null, or the
// ID of the neighbor the node points at.
type Pointer int32

// Null is the null pointer value, written i → Λ in the paper.
const Null Pointer = -1

// IsNull reports whether the pointer is Λ.
//
//selfstab:noalloc
func (p Pointer) IsNull() bool { return p == Null }

// Node returns the pointed-at node; it panics on Null.
//
//selfstab:noalloc
func (p Pointer) Node() graph.NodeID {
	if p == Null {
		panic("core: Node() on null pointer")
	}
	return graph.NodeID(p)
}

// PointAt returns a pointer at node j.
//
//selfstab:noalloc
func PointAt(j graph.NodeID) Pointer { return Pointer(j) }

// String renders "Λ" or the target ID.
func (p Pointer) String() string {
	if p == Null {
		return "Λ"
	}
	return fmt.Sprintf("%d", int32(p))
}

// ProposalPolicy selects which null-pointer neighbor rule R2 proposes to.
// The paper requires MinID (and proves the others may diverge); the
// variants exist to reproduce the Section 3 counterexample and for the
// ablation benchmarks.
type ProposalPolicy uint8

const (
	// ProposeMinID proposes to the minimum-ID null-pointer neighbor —
	// the rule exactly as published.
	ProposeMinID ProposalPolicy = iota
	// ProposeMaxID proposes to the maximum-ID candidate. Like MinID it is
	// a consistent total order, so the convergence proof carries over by
	// symmetry; used as an ablation.
	ProposeMaxID
	// ProposeSuccessor proposes to the cyclically next candidate after the
	// proposer's own ID (the "clockwise neighbor" of the paper's
	// four-cycle counterexample). Not a consistent order across nodes, so
	// SMM with this policy may never stabilize.
	ProposeSuccessor
)

// String names the policy for reports.
func (p ProposalPolicy) String() string {
	switch p {
	case ProposeMinID:
		return "min-id"
	case ProposeMaxID:
		return "max-id"
	case ProposeSuccessor:
		return "successor"
	}
	return fmt.Sprintf("ProposalPolicy(%d)", uint8(p))
}

// AcceptPolicy selects which proposer rule R1 accepts. The paper allows
// any choice ("a node i ... may select a node j among those that are
// pointing to it"); all policies preserve the theorem.
type AcceptPolicy uint8

const (
	// AcceptMinID accepts the minimum-ID proposer (default).
	AcceptMinID AcceptPolicy = iota
	// AcceptMaxID accepts the maximum-ID proposer.
	AcceptMaxID
)

// String names the policy for reports.
func (p AcceptPolicy) String() string {
	switch p {
	case AcceptMinID:
		return "accept-min"
	case AcceptMaxID:
		return "accept-max"
	}
	return fmt.Sprintf("AcceptPolicy(%d)", uint8(p))
}

// SMM is Algorithm SMM (Figure 1): the synchronous self-stabilizing
// maximal matching protocol. The zero value is the protocol exactly as
// published (min-ID proposals, min-ID accepts).
//
// Rules, evaluated in order, first enabled rule fires:
//
//	R1 (accept):   i→Λ ∧ ∃j∈N(i): j→i                    ⇒ i→j
//	R2 (propose):  i→Λ ∧ ∀k∈N(i): k↛i ∧ ∃j∈N(i): j→Λ    ⇒ i→min{j∈N(i): j→Λ}
//	R3 (back-off): i→j ∧ j→k, k∉{Λ,i}                    ⇒ i→Λ
//
// The rule guards are mutually exclusive (R1/R2 need a null pointer with
// and without proposers; R3 needs a non-null pointer), so evaluation order
// does not matter; we keep the paper's order for readability.
type SMM struct {
	Proposal ProposalPolicy
	Accept   AcceptPolicy
}

// NewSMM returns the protocol exactly as published.
func NewSMM() *SMM { return &SMM{} }

// NewSMMArbitrary returns the Section 3 counterexample variant, which
// replaces R2's min-ID selection with the cyclic-successor ("clockwise")
// choice and therefore may never stabilize.
func NewSMMArbitrary() *SMM { return &SMM{Proposal: ProposeSuccessor} }

// Name implements Protocol.
func (s *SMM) Name() string {
	if s.Proposal == ProposeMinID && s.Accept == AcceptMinID {
		return "SMM"
	}
	return fmt.Sprintf("SMM(%s,%s)", s.Proposal, s.Accept)
}

// Random implements Protocol: an arbitrary state is Null or any neighbor.
func (s *SMM) Random(_ graph.NodeID, nbrs []graph.NodeID, rng *rand.Rand) Pointer {
	k := rng.Intn(len(nbrs) + 1)
	if k == len(nbrs) {
		return Null
	}
	return PointAt(nbrs[k])
}

// Move implements Protocol by evaluating R1, R2, R3.
func (s *SMM) Move(v View[Pointer]) (Pointer, bool) {
	if v.Peers != nil {
		return s.moveDirect(v.ID, v.Self, v.Nbrs, v.Peers)
	}
	if v.Self.IsNull() {
		// Gather proposers: neighbors pointing at us.
		best := Null
		for _, j := range v.Nbrs {
			pj := v.Peer(j)
			if !pj.IsNull() && pj.Node() == v.ID {
				if best.IsNull() {
					best = PointAt(j)
				} else if s.Accept == AcceptMaxID && j > best.Node() {
					best = PointAt(j)
				}
				// AcceptMinID keeps the first (Nbrs is ascending).
			}
		}
		if !best.IsNull() {
			return best, true // R1: accept a proposal
		}
		// R2: no proposers; propose to a null-pointer neighbor.
		if j, ok := s.selectProposal(v); ok {
			return PointAt(j), true
		}
		return Null, false
	}
	// Pointer set: check R3 (back-off).
	j := v.Self.Node()
	if !containsNode(v.Nbrs, j) {
		// Dangling pointer: the target is not (or no longer) a neighbor.
		// In the deployed system the link layer repairs this when it
		// drops the neighbor (OnNeighborLost); evaluating the same repair
		// here keeps the rule system total over every reachable state of
		// the message-passing executors.
		return Null, true
	}
	pj := v.Peer(j)
	if !pj.IsNull() && pj.Node() != v.ID {
		return Null, true // R3: j points at some k ∉ {Λ, i}
	}
	return v.Self, false
}

// moveDirect is Move over a direct state vector: the same rules R1–R3,
// restructured around the read freedoms the Peers contract grants. For
// the published policies a single ascending sweep serves both R1 and
// R2's scans — the first proposer found IS the min-ID accept target, so
// the sweep returns on it, and the first null-pointer neighbor seen is
// remembered as the min-ID proposal candidate.
//
//selfstab:noalloc
func (s *SMM) moveDirect(id graph.NodeID, self Pointer, nbrs []graph.NodeID, peers []Pointer) (Pointer, bool) {
	me := Pointer(id)
	if self.IsNull() {
		if s.Accept == AcceptMinID && s.Proposal == ProposeMinID {
			proposal := Null
			for _, j := range nbrs {
				pj := peers[j]
				if pj == me {
					return PointAt(j), true // R1: min-ID proposer accepted
				}
				if pj.IsNull() && proposal.IsNull() {
					proposal = PointAt(j)
				}
			}
			if !proposal.IsNull() {
				return proposal, true // R2: propose to the min-ID null neighbor
			}
			return Null, false
		}
		return s.moveDirectPolicies(id, nbrs, peers)
	}
	// Pointer set: check R3 (back-off).
	j := self.Node()
	if !containsNode(nbrs, j) {
		return Null, true // dangling pointer repair, as in Move
	}
	if pj := peers[j]; !pj.IsNull() && pj != me {
		return Null, true // R3: j points at some k ∉ {Λ, i}
	}
	return self, false
}

// moveDirectPolicies is the null-pointer case of moveDirect under the
// non-default ablation policies.
//
//selfstab:noalloc
func (s *SMM) moveDirectPolicies(id graph.NodeID, nbrs []graph.NodeID, peers []Pointer) (Pointer, bool) {
	me := Pointer(id)
	best := Null
	for _, j := range nbrs {
		if peers[j] == me {
			if best.IsNull() || (s.Accept == AcceptMaxID && j > best.Node()) {
				best = PointAt(j)
			}
		}
	}
	if !best.IsNull() {
		return best, true // R1 under the accept policy
	}
	switch s.Proposal {
	case ProposeMinID:
		for _, j := range nbrs {
			if peers[j].IsNull() {
				return PointAt(j), true
			}
		}
	case ProposeMaxID:
		for i := len(nbrs) - 1; i >= 0; i-- {
			if j := nbrs[i]; peers[j].IsNull() {
				return PointAt(j), true
			}
		}
	case ProposeSuccessor:
		// First null-pointer neighbor above our ID, wrapping to the
		// smallest — the "clockwise" choice, without the candidate slice.
		first := Null
		for _, j := range nbrs {
			if peers[j].IsNull() {
				if j > id {
					return PointAt(j), true
				}
				if first.IsNull() {
					first = PointAt(j)
				}
			}
		}
		if !first.IsNull() {
			return first, true
		}
	default:
		// Constant message: formatting the policy would allocate on a
		// path the noalloc contract covers.
		panic("core: unknown proposal policy")
	}
	return Null, false
}

// MoveBatch implements BatchEvaluator: the rules of Move over a direct
// state vector, one call per round instead of one per node. The default-
// policy loop is the synchronous executors' hottest code path.
//
//selfstab:noalloc
func (s *SMM) MoveBatch(ids []graph.NodeID, csr *graph.CSR, states, next []Pointer, moved []bool) {
	if s.Accept != AcceptMinID || s.Proposal != ProposeMinID {
		woffs, wnbrs := csr.Rows()
		for _, id := range ids {
			next[id], moved[id] = s.moveDirect(id, states[id], wnbrs[woffs[id]:woffs[id+1]], states)
		}
		return
	}
	offs, nbrs := csr.Rows32()
	for _, id := range ids {
		self := states[id]
		row := nbrs[offs[id]:offs[id+1]]
		me := Pointer(id)
		if self.IsNull() {
			// One reverse sweep with conditional moves: the last hit in
			// reverse order is the first in ascending order, so prop ends
			// as the min-ID proposer and firstNull as the min-ID null
			// neighbor, with no data-dependent branches inside the loop.
			prop, firstNull := int32(-1), int32(-1)
			for i := len(row) - 1; i >= 0; i-- {
				j := row[i]
				pj := states[j]
				if pj == Null {
					firstNull = j
				}
				if pj == me {
					prop = j
				}
			}
			switch {
			case prop >= 0:
				next[id], moved[id] = Pointer(prop), true // R1
			case firstNull >= 0:
				next[id], moved[id] = Pointer(firstNull), true // R2
			default:
				next[id], moved[id] = Null, false
			}
			continue
		}
		j := int32(self)
		if uint(j) >= uint(len(states)) {
			next[id], moved[id] = Null, true // pointer outside the ID space: repair
			continue
		}
		if pj := states[j]; pj != Null && pj != me {
			// The output is Null either way — R3 if j is a neighbor, the
			// dangling-pointer repair if not — so membership need not be
			// tested at all on this path.
			next[id], moved[id] = Null, true
			continue
		}
		// pj is Null or points back at us: the outcome now turns on
		// whether the pointer is legal.
		if containsNode32(row, j) {
			next[id], moved[id] = self, false
		} else {
			next[id], moved[id] = Null, true // dangling pointer repair
		}
	}
}

// CommitBatch implements ShardKernel. SMM is deterministic — every
// firing rule rewrites the pointer — so moved coincides exactly with
// "the state changed" and one flag covers both the move count and the
// install test. Writes touch only ids' slots — safe across shards with
// disjoint id sets.
//
//selfstab:noalloc
func (s *SMM) CommitBatch(ids []graph.NodeID, states, next []Pointer, moved []bool) int {
	mv := 0
	for _, id := range ids {
		if moved[id] {
			mv++
			states[id] = next[id]
		}
	}
	return mv
}

// MarkBatch implements ShardKernel, reading the fully committed
// post-round states. The dependency rule follows directly from the
// rules' read sets: a node holding a pointer reads only its target's
// state (R3 and the dangling-pointer repair consult nothing else), so a
// state change at id re-privileges a pointing neighbor w only when w
// points at id; a null node's rules (R1/R2) scan every neighbor, so it
// always re-evaluates. This holds for every Accept/Proposal policy —
// policies change which null-neighbor wins, not which states are read.
//
// A mover re-marks itself only when it lands on Null: a node whose new
// state points at k can only become privileged again through a change
// at k, and k's own mark phase marks it — k reads our new Pointer(k)
// after the barrier. A node landing on Null may have R1/R2 immediately
// enabled with no neighbor changing, so it must re-evaluate. The
// argument does not depend on the order of installs, so post-round
// reads (all installs first) are sound: a moved neighbor w either
// landed on Null (its own mark re-marks it) or points at some k, in
// which case only a change at k — whose mark tests exactly this — can
// re-enable it.
//
//selfstab:noalloc
func (s *SMM) MarkBatch(ids []graph.NodeID, csr *graph.CSR, states []Pointer, moved []bool, f *graph.Frontier) {
	offs, nbrs := csr.Rows32()
	for _, id := range ids {
		if !moved[id] {
			continue
		}
		nx := states[id]
		f.AddMask(id, nx == Null)
		target := Pointer(id)
		for _, w := range nbrs[offs[id]:offs[id+1]] {
			pw := states[w]
			// Exact dependency test, compiled to flag-set-and-or rather
			// than a data-dependent branch: null neighbors read every
			// state, pointing neighbors read only their target's.
			isNull := pw == Null
			pointsHere := pw == target
			f.AddMask(graph.NodeID(w), isNull || pointsHere)
		}
	}
}

// containsNode reports membership in an ascending neighbor list. Short
// lists — the common case in the bounded-degree ad hoc topologies — scan
// linearly: the predictable branch beats binary search's mispredicted
// halving well past a cache line of IDs.
//
//selfstab:noalloc
func containsNode(nbrs []graph.NodeID, j graph.NodeID) bool {
	if len(nbrs) <= 32 {
		for _, x := range nbrs {
			if x >= j {
				return x == j
			}
		}
		return false
	}
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbrs[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nbrs) && nbrs[lo] == j
}

// containsNode32 is containsNode over a narrowed CSR row.
//
//selfstab:noalloc
func containsNode32(nbrs []int32, j int32) bool {
	if len(nbrs) <= 32 {
		for _, x := range nbrs {
			if x >= j {
				return x == j
			}
		}
		return false
	}
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbrs[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nbrs) && nbrs[lo] == j
}

// selectProposal returns the R2 target under the configured policy, and
// whether any null-pointer neighbor exists.
func (s *SMM) selectProposal(v View[Pointer]) (graph.NodeID, bool) {
	switch s.Proposal {
	case ProposeMinID:
		for _, j := range v.Nbrs {
			if v.Peer(j).IsNull() {
				return j, true
			}
		}
		return 0, false
	case ProposeMaxID:
		for i := len(v.Nbrs) - 1; i >= 0; i-- {
			if j := v.Nbrs[i]; v.Peer(j).IsNull() {
				return j, true
			}
		}
		return 0, false
	case ProposeSuccessor:
		// First candidate with ID greater than ours, wrapping around:
		// the "clockwise neighbor" selection of the counterexample.
		var candidates []graph.NodeID
		for _, j := range v.Nbrs {
			if v.Peer(j).IsNull() {
				candidates = append(candidates, j)
			}
		}
		if len(candidates) == 0 {
			return 0, false
		}
		for _, j := range candidates {
			if j > v.ID {
				return j, true
			}
		}
		return candidates[0], true
	}
	panic(fmt.Sprintf("core: unknown proposal policy %d", s.Proposal))
}

// OnNeighborLost implements NeighborAware: a pointer at a departed
// neighbor is reset to Null, exactly the readjustment the paper's
// fault-tolerance claim describes.
func (s *SMM) OnNeighborLost(_ graph.NodeID, p Pointer, lost graph.NodeID) Pointer {
	if !p.IsNull() && p.Node() == lost {
		return Null
	}
	return p
}

// Matched reports whether node i is matched in cfg (i ↔ j for some j).
func Matched(cfg Config[Pointer], i graph.NodeID) bool {
	p := cfg.States[i]
	if p.IsNull() {
		return false
	}
	j := p.Node()
	q := cfg.States[j]
	return !q.IsNull() && q.Node() == i
}

// MatchingOf extracts the matched pairs {i,j} with i ↔ j from a
// configuration, each edge reported once, sorted by smaller endpoint.
func MatchingOf(cfg Config[Pointer]) []graph.Edge {
	var m []graph.Edge
	for v := range cfg.States {
		i := graph.NodeID(v)
		p := cfg.States[v]
		if !p.IsNull() && p.Node() > i {
			j := p.Node()
			q := cfg.States[j]
			if !q.IsNull() && q.Node() == i {
				m = append(m, graph.Edge{U: i, V: j})
			}
		}
	}
	return m
}

// ValidSMMConfig checks that every non-null pointer targets an actual
// neighbor; states violating this cannot arise in the message-passing
// system (a node only learns of neighbors via beacons) but can be fed to
// the simulator by mistake.
func ValidSMMConfig(cfg Config[Pointer]) error {
	for v, p := range cfg.States {
		if p.IsNull() {
			continue
		}
		if !cfg.G.HasEdge(graph.NodeID(v), p.Node()) {
			return fmt.Errorf("core: node %d points at non-neighbor %d", v, p.Node())
		}
	}
	return nil
}

// NormalizeSMM repairs a configuration after a topology change by
// nullifying any pointer whose target edge disappeared. This is exactly
// what a deployed node does when the neighbor-discovery protocol drops the
// pointed-at neighbor from its neighbor list.
func NormalizeSMM(cfg Config[Pointer]) (repaired int) {
	for v, p := range cfg.States {
		if !p.IsNull() && !cfg.G.HasEdge(graph.NodeID(v), p.Node()) {
			cfg.States[v] = Null
			repaired++
		}
	}
	return repaired
}
