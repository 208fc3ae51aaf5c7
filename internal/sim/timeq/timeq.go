// Package timeq is the simulator's time-ordered queue, shared by the
// system event scheduler and the NoC's in-flight message set.
//
// Elements are ordered by (time, seq), so equal-time elements leave in
// push order when seq increases with each push. Both users schedule
// almost everything a few hundred cycles ahead (NoC and L2 latencies
// bound the horizon), so the queue is a timing wheel: wheelSize
// one-cycle buckets cover the window [base, base+wheelSize), where base
// is the time of the last pop, and each bucket is a FIFO list of slab
// slots kept in seq order. A bitmap of non-empty buckets finds the
// earliest one in a few word scans. Times outside the window (beyond
// its end, or below base) go to a binary min-heap of 24-byte (time,
// seq, slot) keys, and Pop takes the (time, seq) minimum of the two
// heads — so the order is exactly the heap's, whichever side holds an
// element. Values live in a slab indexed by slot, reused through a free
// list, so steady-state pushes allocate nothing; the sift loops are
// written against the concrete key type rather than through
// container/heap, whose `any` interface would box every element.
package timeq

import "math/bits"

const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// key orders one queued value; slot indexes it in the slab.
type key struct {
	time int64
	seq  int64
	slot int32
}

func (a key) less(b key) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// entry is one slab slot: the value with its order key and, while it
// sits on the wheel, the next slot in its bucket (-1 ends the list).
type entry[T any] struct {
	time int64
	seq  int64
	next int32
	v    T
}

// Queue is a min-queue of values ordered by (time, seq). The zero value
// is empty and ready to use.
type Queue[T any] struct {
	slab []entry[T]
	free []int32 // vacated slab slots

	// base starts the wheel window; every wheel element has a time in
	// [base, base+wheelSize) and sits in bucket time&wheelMask. No wheel
	// element is earlier than lo (base <= lo), where scans for the
	// earliest start, so repeated Peeks cost one bitmap word.
	base, lo int64
	// head and tail are each bucket's FIFO list ends, valid while the
	// bucket's bit in used is set.
	head, tail [wheelSize]int32
	used       [wheelSize / 64]uint64
	wheelLen   int

	over []key // binary min-heap of the elements outside the window
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return q.wheelLen + len(q.over) }

// wheelMin returns the earliest non-empty bucket's time, or false when
// the wheel is empty. The scan runs from lo's bucket forward, wrapping
// once, and leaves lo at the time found.
func (q *Queue[T]) wheelMin() (int64, bool) {
	if q.wheelLen == 0 {
		return 0, false
	}
	start := int(q.lo & wheelMask)
	w := start >> 6
	// The first word, masked to the buckets at or after start.
	if m := q.used[w] &^ (1<<(start&63) - 1); m != 0 {
		q.lo += int64(w<<6 + bits.TrailingZeros64(m) - start)
		return q.lo, true
	}
	for i := 1; i <= len(q.used); i++ {
		wi := (w + i) % len(q.used)
		if m := q.used[wi]; m != 0 {
			b := wi<<6 + bits.TrailingZeros64(m)
			q.lo += int64((b - start) & wheelMask)
			return q.lo, true
		}
	}
	panic("timeq: wheel count and bitmap disagree")
}

// Peek returns the earliest queued time, or false when the queue is
// empty.
func (q *Queue[T]) Peek() (int64, bool) {
	t, ok := q.wheelMin()
	if len(q.over) > 0 && (!ok || q.over[0].time < t) {
		return q.over[0].time, true
	}
	return t, ok
}

// alloc stores v in a free slab slot (or grows the slab). The fields
// are written one by one: building an entry and copying it in would
// move the value twice.
func (q *Queue[T]) alloc(time, seq int64, v *T) int32 {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, entry[T]{})
	}
	e := &q.slab[slot]
	e.time, e.seq, e.next, e.v = time, seq, -1, *v
	return slot
}

// Push queues v at the given time; seq breaks ties between equal times.
func (q *Queue[T]) Push(time, seq int64, v T) {
	slot := q.alloc(time, seq, &v)
	if time < q.base || time-q.base >= wheelSize {
		q.pushOver(key{time: time, seq: seq, slot: slot})
		return
	}
	q.wheelLen++
	if time < q.lo {
		q.lo = time
	}
	b := int(time & wheelMask)
	if q.used[b>>6]&(1<<(b&63)) == 0 {
		q.used[b>>6] |= 1 << (b & 63)
		q.head[b], q.tail[b] = slot, slot
		return
	}
	if t := q.tail[b]; seq >= q.slab[t].seq {
		// The common case: seq grows with each push, so append.
		q.slab[t].next = slot
		q.tail[b] = slot
		return
	}
	// Keep the bucket in seq order for callers whose seq does not grow
	// with push order.
	prev := int32(-1)
	cur := q.head[b]
	for cur >= 0 && q.slab[cur].seq <= seq {
		prev, cur = cur, q.slab[cur].next
	}
	q.slab[slot].next = cur
	if prev < 0 {
		q.head[b] = slot
	} else {
		q.slab[prev].next = slot
	}
}

// Pop removes and returns the earliest value with its time and seq. The
// queue must not be empty.
func (q *Queue[T]) Pop() (time, seq int64, v T) {
	var slot int32
	t, ok := q.wheelMin()
	if len(q.over) > 0 && (!ok || q.over[0].less(key{time: t, seq: q.slab[q.head[t&wheelMask]].seq})) {
		slot = q.popOver()
	} else {
		b := int(t & wheelMask)
		slot = q.head[b]
		if next := q.slab[slot].next; next >= 0 {
			q.head[b] = next
		} else {
			q.used[b>>6] &^= 1 << (b & 63)
		}
		q.wheelLen--
	}
	e := &q.slab[slot]
	time, seq, v = e.time, e.seq, e.v
	var zero T
	e.v = zero // drop references the value held
	q.free = append(q.free, slot)
	// Pop order is (time, seq) order, so nothing left on the wheel is
	// earlier than time and the window may start there.
	if time > q.base {
		q.base = time
		q.lo = max(q.lo, time)
	}
	return time, seq, v
}

// pushOver adds a key to the out-of-window heap.
func (q *Queue[T]) pushOver(k key) {
	h := append(q.over, k)
	q.over = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popOver removes the heap's minimum and returns its slot.
func (q *Queue[T]) popOver() int32 {
	h := q.over
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.over = h
	for i := 0; ; {
		s := i
		if l := 2*i + 1; l < n && h[l].less(h[s]) {
			s = l
		}
		if r := 2*i + 2; r < n && h[r].less(h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top.slot
}

// Each calls fn for every queued value, in no particular order
// (diagnostics).
func (q *Queue[T]) Each(fn func(time, seq int64, v *T)) {
	for _, k := range q.over {
		e := &q.slab[k.slot]
		fn(e.time, e.seq, &e.v)
	}
	for b := range q.head {
		if q.used[b>>6]&(1<<(b&63)) == 0 {
			continue
		}
		for s := q.head[b]; s >= 0; s = q.slab[s].next {
			e := &q.slab[s]
			fn(e.time, e.seq, &e.v)
		}
	}
}
