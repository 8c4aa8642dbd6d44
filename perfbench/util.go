package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"selfstab/internal/graph"
	"selfstab/internal/stats"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// subSeed derives an independent seed for one named input stream of the
// workload seed, so adding a stream never shifts another's inputs.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(stream))
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	h.Write(buf[:])
	x := h.Sum64() + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

func rngFor(seed int64, stream string, i int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream, i)))
}

// unitDiskDegree is the expected average degree of the workloads'
// unit-disk topologies.
const unitDiskDegree = 10

// unitDisk places n uniform points in the unit square and links every
// pair within the radius that gives unitDiskDegree expected neighbors:
// the paper's ad hoc radio model.
func unitDisk(n int, seed int64) *graph.Graph {
	r := math.Sqrt(unitDiskDegree / (math.Pi * float64(n)))
	return graph.UnitDiskGrid(graph.RandomPoints(n, rngFor(seed, "points", n)), r)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// (0 for none); xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

// tail returns the highest of the p99.9/p99/p95/p90/p75 percentiles that
// has at least ten samples beyond it, and that percentile; (0, 0) when
// there are too few samples for any.
func tail(xs []float64) (pct, value float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 0, 0
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
