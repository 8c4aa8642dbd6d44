package core

import (
	"math/rand"

	"selfstab/internal/graph"
)

// SMI is Algorithm SMI (Figure 4): the synchronous self-stabilizing
// maximal independent set protocol. Each node keeps one bit x(i); the set
// is {i : x(i) = true}.
//
// Rules ("j bigger than i" means j's ID exceeds i's):
//
//	R1 (enter): x(i)=0 ∧ ¬∃j∈N(i): j>i ∧ x(j)=1  ⇒ x(i)=1
//	R2 (leave): x(i)=1 ∧  ∃j∈N(i): j>i ∧ x(j)=1  ⇒ x(i)=0
//
// The guards are complementary on the bigger-neighbor predicate, so
// exactly one rule can be enabled at a node.
type SMI struct{}

// NewSMI returns Algorithm SMI.
func NewSMI() *SMI { return &SMI{} }

// Name implements Protocol.
func (*SMI) Name() string { return "SMI" }

// Random implements Protocol: the state space is a single bit.
func (*SMI) Random(_ graph.NodeID, _ []graph.NodeID, rng *rand.Rand) bool {
	return rng.Intn(2) == 1
}

// Move implements Protocol by evaluating R1 and R2.
func (*SMI) Move(v View[bool]) (bool, bool) {
	biggerIn := false
	if peers := v.Peers; peers != nil {
		// Direct-read path: the bigger neighbors are a suffix of the
		// ascending list, so start at the end and stop at the first ID at
		// or below ours (the Peers contract lets reads reorder freely).
		for i := len(v.Nbrs) - 1; i >= 0; i-- {
			j := v.Nbrs[i]
			if j <= v.ID {
				break
			}
			if peers[j] {
				biggerIn = true
				break
			}
		}
	} else {
		for _, j := range v.Nbrs {
			if j > v.ID && v.Peer(j) {
				biggerIn = true
				break
			}
		}
	}
	switch {
	case !v.Self && !biggerIn:
		return true, true // R1: enter the set
	case v.Self && biggerIn:
		return false, true // R2: leave the set
	}
	return v.Self, false
}

// MoveBatch implements BatchEvaluator: the rules of Move over a direct
// state vector, one call per round instead of one per node.
//
//selfstab:noalloc
func (*SMI) MoveBatch(ids []graph.NodeID, csr *graph.CSR, states, next []bool, moved []bool) {
	offs, nbrs := csr.Rows32()
	for _, id := range ids {
		row := nbrs[offs[id]:offs[id+1]]
		id32 := int32(id)
		biggerIn := false
		for i := len(row) - 1; i >= 0; i-- {
			j := row[i]
			if j <= id32 {
				break
			}
			if states[j] {
				biggerIn = true
				break
			}
		}
		self := states[id]
		switch {
		case !self && !biggerIn:
			next[id], moved[id] = true, true // R1: enter the set
		case self && biggerIn:
			next[id], moved[id] = false, true // R2: leave the set
		default:
			next[id], moved[id] = self, false
		}
	}
}

// CommitBatch implements ShardKernel: SMI is deterministic and each rule
// flips the bit, so moved coincides exactly with "the state changed".
// Writes touch only ids' slots — safe across shards with disjoint id
// sets.
//
//selfstab:noalloc
func (*SMI) CommitBatch(ids []graph.NodeID, states, next []bool, moved []bool) int {
	mv := 0
	for _, id := range ids {
		if moved[id] {
			mv++
			states[id] = next[id]
		}
	}
	return mv
}

// MarkBatch implements ShardKernel. Both rules test only neighbors with
// bigger IDs, so a state change at id can re-privilege a neighbor w only
// when w < id — the ascending CSR row makes those a prefix, and each
// mover marks exactly that prefix. No self re-mark: a mover's next-round
// privilege depends only on its bigger in-set neighbors, so it can only
// be re-enabled by a bigger neighbor's change — and that neighbor marks
// its whole smaller-ID prefix, which includes this node. MarkBatch reads
// no states at all, only the CSR, so it is trivially sound under any
// commit order, including the all-installs-first order of the barrier.
//
//selfstab:noalloc
func (*SMI) MarkBatch(ids []graph.NodeID, csr *graph.CSR, _ []bool, moved []bool, f *graph.Frontier) {
	offs, nbrs := csr.Rows32()
	for _, id := range ids {
		if !moved[id] {
			continue
		}
		id32 := int32(id)
		for _, w := range nbrs[offs[id]:offs[id+1]] {
			if w >= id32 {
				break
			}
			f.Add(graph.NodeID(w))
		}
	}
}

// SetOf extracts {i : x(i)=1} from a configuration, ascending.
func SetOf(cfg Config[bool]) []graph.NodeID {
	var s []graph.NodeID
	for v, x := range cfg.States {
		if x {
			s = append(s, graph.NodeID(v))
		}
	}
	return s
}
