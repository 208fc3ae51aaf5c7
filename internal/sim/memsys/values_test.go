package memsys

import (
	"math/rand"
	"testing"
)

// TestValuesMatchMap checks the dense value table against a map: words
// scattered over several distant regions, near one another (spans that
// grow forward, grow backward over a gap, and come to overlap) and
// never written (which must read zero).
func TestValuesMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var v Values
	ref := map[uint64]int64{}
	bases := []uint64{0, 1 << 20, 1<<20 + 300*pageWords, 7 << 26, 1 << 40}
	word := func() uint64 {
		return bases[rng.Intn(len(bases))] + uint64(rng.Intn(600*pageWords))
	}
	for step := 0; step < 50000; step++ {
		w := word()
		if rng.Intn(3) == 0 {
			x := rng.Int63()
			v.Set(w, x)
			ref[w] = x
		}
		if got := v.Get(w); got != ref[w] {
			t.Fatalf("step %d: Get(%#x) = %d, want %d", step, w, got, ref[w])
		}
	}
	for w, x := range ref {
		if got := v.Get(w); got != x {
			t.Fatalf("Get(%#x) = %d, want %d", w, got, x)
		}
	}
	if n := len(v.spans); n > 2*len(bases) {
		t.Errorf("%d spans for %d regions", n, len(bases))
	}
}
