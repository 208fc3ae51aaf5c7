package timeq

import (
	"math/rand"
	"sort"
	"testing"
)

// TestOrderMatchesSort pushes and pops in random interleavings and checks
// every pop against a sorted reference: earliest time first, ties in seq
// order, values intact across slot reuse.
func TestOrderMatchesSort(t *testing.T) {
	type item struct{ time, seq, v int64 }
	rng := rand.New(rand.NewSource(1))
	var q Queue[int64]
	var ref []item // kept sorted by (time, seq)
	seq := int64(0)
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(2) == 0 {
			seq++
			it := item{time: rng.Int63n(64), seq: seq, v: rng.Int63()}
			q.Push(it.time, it.seq, it.v)
			// seq only grows, so a new item goes after every equal time.
			i := sort.Search(len(ref), func(i int) bool { return ref[i].time > it.time })
			ref = append(ref, item{})
			copy(ref[i+1:], ref[i:])
			ref[i] = it
			continue
		}
		want := ref[0]
		ref = ref[1:]
		if tm, ok := q.Peek(); !ok || tm != want.time {
			t.Fatalf("step %d: Peek = %d,%v want %d", step, tm, ok, want.time)
		}
		tm, sq, v := q.Pop()
		if tm != want.time || sq != want.seq || v != want.v {
			t.Fatalf("step %d: Pop = (%d,%d,%d) want %+v", step, tm, sq, v, want)
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d want %d", step, q.Len(), len(ref))
		}
	}
	n := 0
	q.Each(func(_, _ int64, _ *int64) { n++ })
	if n != len(ref) {
		t.Fatalf("Each visited %d of %d", n, len(ref))
	}
	if len(q.slab) != len(ref)+len(q.free) {
		t.Fatalf("slab %d != live %d + free %d", len(q.slab), len(ref), len(q.free))
	}
}

// TestSteadyStateAllocatesNothing pins the slab reuse: once the queue has
// reached its working size, push/pop cycles allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	type big struct{ a [12]int64 }
	var q Queue[big]
	for i := int64(0); i < 64; i++ {
		q.Push(i, i, big{})
	}
	seq := int64(64)
	allocs := testing.AllocsPerRun(1000, func() {
		tm, _, v := q.Pop()
		seq++
		q.Push(tm+64, seq, v)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per push/pop", allocs)
	}
}
