package graph

import "sort"

// Partition splits a CSR snapshot into K contiguous node-ID ranges for
// sharded execution. Shard s owns the half-open range [Start(s),
// Start(s+1)); ranges are balanced by node count (|range| differs by at
// most one across shards), cover every node exactly once, and depend
// only on (n, K) — never on the edge set — so edge churn under fault
// injection cannot move a node between shards and dirty marks routed by
// owner stay valid across topology re-snapshots.
//
// Beyond the ranges, a Partition carries the boundary index the sharded
// executor's merge phase leans on: per shard, the halo — the sorted set
// of non-owned neighbors of owned nodes — and, per ordered shard pair
// (s, t), the subrange of t's range that s's halo touches. Everything a
// shard writes outside its own range during the mark phase lands inside
// its halo, so absorbing those spans is a complete cross-shard exchange.
//
// A Partition is immutable after NewPartition returns and safe to share
// between goroutines.
type Partition struct {
	csr    *CSR
	starts []int32 // len K+1; shard s owns nodes [starts[s], starts[s+1])
	halos  [][]NodeID
	// spans[s*K+t] is the subrange [lo, hi) of shard t's node range that
	// shard s's halo covers (zero-length when s has no neighbor in t).
	spans [][2]int32
	// one backs starts, halos and spans when K = 1, so the partition of
	// the default sequential executor is a single allocation.
	one struct {
		starts [2]int32
		halos  [1][]NodeID
		spans  [1][2]int32
	}
}

// NewPartition partitions c into k contiguous ranges. k is clamped to
// [1, max(1, n)]: more shards than nodes would leave empty ranges, and
// at least one shard always exists (even over the empty graph).
func NewPartition(c *CSR, k int) *Partition {
	n := c.N()
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	p := &Partition{csr: c}
	if k == 1 {
		// One shard owns every node, so it has no halo and nothing to
		// absorb; skipping the O(m) halo scan keeps the default
		// sequential executor's construction cost at the CSR snapshot.
		p.one.starts = [2]int32{0, int32(n)}
		p.one.spans[0] = [2]int32{int32(n), 0}
		p.starts, p.halos, p.spans = p.one.starts[:], p.one.halos[:], p.one.spans[:]
		return p
	}
	p.starts = make([]int32, k+1)
	p.halos = make([][]NodeID, k)
	p.spans = make([][2]int32, k*k)
	for s := 0; s <= k; s++ {
		p.starts[s] = int32(s * n / k)
	}
	for s := 0; s < k; s++ {
		p.halos[s] = buildHalo(c, int(p.starts[s]), int(p.starts[s+1]))
	}
	for s := 0; s < k; s++ {
		for t := 0; t < k; t++ {
			p.spans[s*k+t] = [2]int32{p.starts[t+1], p.starts[t]} // empty (lo > hi) until extended
		}
		for _, h := range p.halos[s] {
			t := p.Owner(h)
			sp := &p.spans[s*k+t]
			if int32(h) < sp[0] {
				sp[0] = int32(h)
			}
			if int32(h)+1 > sp[1] {
				sp[1] = int32(h) + 1
			}
		}
	}
	return p
}

// buildHalo collects the sorted, deduplicated neighbors of [lo, hi)
// that lie outside [lo, hi).
func buildHalo(c *CSR, lo, hi int) []NodeID {
	var halo []NodeID
	offs, nbrs := c.Rows()
	for v := lo; v < hi; v++ {
		for _, w := range nbrs[offs[v]:offs[v+1]] {
			if int(w) < lo || int(w) >= hi {
				halo = append(halo, w)
			}
		}
	}
	sort.Slice(halo, func(i, j int) bool { return halo[i] < halo[j] })
	out := halo[:0]
	for i, h := range halo {
		if i == 0 || h != halo[i-1] {
			out = append(out, h)
		}
	}
	return out
}

// K returns the shard count.
//
//selfstab:noalloc
func (p *Partition) K() int { return len(p.starts) - 1 }

// Range returns shard s's owned node range [lo, hi).
//
//selfstab:noalloc
func (p *Partition) Range(s int) (lo, hi NodeID) {
	return NodeID(p.starts[s]), NodeID(p.starts[s+1])
}

// Owner returns the shard owning node v. The binary search is written
// out (rather than sort.Search with a closure) so the hot path carries
// no function value and no capture.
//
//selfstab:noalloc
func (p *Partition) Owner(v NodeID) int {
	lo, hi := 0, p.K()-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.starts[mid+1] > int32(v) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Halo returns shard s's halo: the sorted non-owned neighbors of its
// owned nodes. Read-only.
//
//selfstab:noalloc
func (p *Partition) Halo(s int) []NodeID { return p.halos[s] }

// AbsorbSpan returns the subrange [lo, hi) of shard t's node range that
// shard s's halo covers: the only part of t's range shard s can mark
// during the install phase, hence the only part t must absorb from s at
// the round barrier. lo >= hi means no overlap.
//
//selfstab:noalloc
func (p *Partition) AbsorbSpan(s, t int) (lo, hi NodeID) {
	sp := p.spans[s*p.K()+t]
	return NodeID(sp[0]), NodeID(sp[1])
}

// ShardView is a shard's window onto the CSR snapshot: the owned node
// range plus the read-only boundary index. Offs and Nbrs are subslices
// of the global CSR arrays (no copying): the neighbor list of owned
// node v is Nbrs[Offs[v-Lo]-base : Offs[v-Lo+1]-base] with base =
// Offs[0], and concatenating every shard's Nbrs in shard order
// reproduces the CSR's neighbor array byte for byte (the fuzz tier pins
// this reassembly invariant).
type ShardView struct {
	// Lo, Hi delimit the owned node range [Lo, Hi).
	Lo, Hi NodeID
	// Offs is the CSR offset array window offs[Lo : Hi+1]; offsets are
	// global (into the full CSR neighbor array), so rebase by Offs[0]
	// when indexing Nbrs.
	Offs []int32
	// Nbrs holds the owned rows back to back.
	Nbrs []NodeID
	// Halo is the sorted set of non-owned nodes visible from the range.
	Halo []NodeID
}

// View returns shard s's window.
//
//selfstab:noalloc
func (p *Partition) View(s int) ShardView {
	lo, hi := p.starts[s], p.starts[s+1]
	return ShardView{
		Lo:   NodeID(lo),
		Hi:   NodeID(hi),
		Offs: p.csr.offs[lo : hi+1],
		Nbrs: p.csr.nbrs[p.csr.offs[lo]:p.csr.offs[hi]],
		Halo: p.halos[s],
	}
}

// Neighbors returns owned node v's neighbor list. v must be in [Lo, Hi).
//
//selfstab:noalloc
func (v ShardView) Neighbors(u NodeID) []NodeID {
	base := v.Offs[0]
	return v.Nbrs[v.Offs[u-v.Lo]-base : v.Offs[u-v.Lo+1]-base]
}
