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
// reached its working size, push/pop cycles allocate nothing, both on the
// wheel (pushes within its window, as the simulator's nearly all are)
// and on the overflow heap (every push beyond the window).
func TestSteadyStateAllocatesNothing(t *testing.T) {
	type big struct{ a [12]int64 }
	for _, tc := range []struct {
		name    string
		horizon int64
		onWheel bool
	}{{"wheel", 64, true}, {"overflow", 3 * wheelSize, false}} {
		var q Queue[big]
		for i := int64(0); i < 350; i++ {
			q.Push(i%tc.horizon, i, big{})
		}
		seq := int64(350)
		allocs := testing.AllocsPerRun(1000, func() {
			tm, _, v := q.Pop()
			seq++
			q.Push(tm+tc.horizon, seq, v)
		})
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocs per push/pop", tc.name, allocs)
		}
		if onWheel := len(q.over) == 0; onWheel != tc.onWheel {
			t.Fatalf("%s: %d on the wheel, %d on the heap", tc.name, q.wheelLen, len(q.over))
		}
	}
}

// TestWideHorizonOrder drives both halves of the queue against a sorted
// reference: times span several wheel widths, so elements land beyond
// the window, on the wheel and (below the last pop) back in the heap,
// and equal times repeat so that ties straddle the wheel and the heap.
// seq does not always grow with push order either, which exercises the
// in-bucket ordered insert.
func TestWideHorizonOrder(t *testing.T) {
	type item struct{ time, seq, v int64 }
	less := func(a, b item) bool {
		if a.time != b.time {
			return a.time < b.time
		}
		return a.seq < b.seq
	}
	rng := rand.New(rand.NewSource(7))
	var q Queue[int64]
	var ref []item
	var last int64 // time of the last pop
	seq := int64(0)
	var times []int64 // earlier push times, for ties
	straddled, below := 0, 0
	for step := 0; step < 50000; step++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			var tm int64
			switch r := rng.Intn(10); {
			case r < 4:
				tm = last + rng.Int63n(wheelSize) // on the wheel
			case r < 6:
				tm = last + rng.Int63n(4*wheelSize) // often beyond it
			case r < 7:
				tm = last - rng.Int63n(100) // below the last pop
				below++
			default:
				if len(times) == 0 {
					continue
				}
				tm = times[rng.Intn(len(times))] // a tie
			}
			seq++
			s := seq
			if rng.Intn(20) == 0 {
				s = -seq // out of push order
			}
			it := item{time: tm, seq: s, v: rng.Int63()}
			q.Push(it.time, it.seq, it.v)
			times = append(times, tm)
			if len(times) > 64 {
				times = times[1:]
			}
			i := sort.Search(len(ref), func(i int) bool { return less(it, ref[i]) })
			ref = append(ref, item{})
			copy(ref[i+1:], ref[i:])
			ref[i] = it
			continue
		}
		// A tie between the heap's head and the wheel's is the case the
		// two-headed Pop exists for; count how often it is exercised.
		if len(q.over) > 0 {
			if wt, ok := q.wheelMin(); ok && wt == q.over[0].time {
				straddled++
			}
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
		last = tm
	}
	if straddled == 0 || below == 0 {
		t.Fatalf("generator missed a case: %d straddling ties, %d pushes below the last pop", straddled, below)
	}
	n := 0
	q.Each(func(_, _ int64, _ *int64) { n++ })
	if n != len(ref) {
		t.Fatalf("Each visited %d of %d", n, len(ref))
	}
}

// BenchmarkQueue replays traffic shaped like the simulator's two queues
// at paper scale: a steady depth of ~350, each pop followed by a push a
// mean ~245 cycles ahead (exponential), with a rare far push (~12.6k
// cycles, past the wheel) as DRAM queueing under contention produces.
func BenchmarkQueue(b *testing.B) {
	type payload struct{ a [12]int64 } // about the size of an event or message
	const depth, mean, far = 350, 245.0, 12600
	rng := rand.New(rand.NewSource(1))
	horizons := make([]int64, 1<<16)
	sum := 0.0
	for i := range horizons {
		h := 1 + int64(rng.ExpFloat64()*(mean-1))
		if i%2000 == 0 {
			h = far
		}
		horizons[i] = h
		sum += float64(h)
	}
	var q Queue[payload]
	seq := int64(0)
	for i := 0; i < depth; i++ {
		seq++
		q.Push(horizons[i], seq, payload{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, _, v := q.Pop()
		seq++
		q.Push(tm+horizons[i&(len(horizons)-1)], seq, v)
	}
	b.ReportMetric(sum/float64(len(horizons)), "horizon-mean")
}
