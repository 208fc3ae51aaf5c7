// Package workloads generates the traces for the paper's seven
// microbenchmarks (Hist, Hist_global, HG-Non-Order, Flags, SplitCounter,
// RefCounter, Seqlocks — Table 3) and three full benchmarks (UTS, BC,
// PageRank). Each generator reproduces its kernel's memory-access and
// atomic structure — atomic density, data reuse, contention, per-lane
// divergence — and attaches a functional check the simulator validates
// after every run.
package workloads

import "fmt"

// Address-space layout: disjoint regions per logical array so workloads
// never alias.
const (
	dataBase uint64 = 0x1000_0000 // input element arrays
	binsBase uint64 = 0x2000_0000 // histogram bins / shared counters
	flagBase uint64 = 0x3000_0000 // flags (stop/dirty/seq)
	adjBase  uint64 = 0x4000_0000 // graph adjacency lists
	rankBase uint64 = 0x5000_0000 // rank / sigma / delta arrays
	auxBase  uint64 = 0x6000_0000 // miscellaneous (queues, outputs)

	wordSize uint64 = 4
)

// word returns the byte address of element i in a region.
func word(base uint64, i int) uint64 { return base + uint64(i)*wordSize }

// Scale selects a workload size: Test keeps full-suite runs fast;
// Paper approximates the paper's input sizes (scaled to what a
// cycle-level software simulator sustains).
type Scale int

const (
	// Test is the small configuration used by the test suite.
	Test Scale = iota
	// Paper is the benchmark-harness configuration.
	Paper
)

// ParseScale maps a -scale flag value, "test" or "paper", to its Scale.
// Anything else is an error rather than a silent fall-back to Test.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "test":
		return Test, nil
	case "paper":
		return Paper, nil
	}
	return Test, fmt.Errorf("unknown scale %q (want test or paper)", name)
}

// pick returns t for Test scale, p for Paper scale.
func (s Scale) pick(t, p int) int {
	if s == Paper {
		return p
	}
	return t
}

// warpLanes is the SIMT width.
const warpLanes = 32

// chunk32 splits [0, n) into 32-element lane groups.
func chunk32(n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += warpLanes {
		hi := lo + warpLanes
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
