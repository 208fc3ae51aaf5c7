// Package timeq is the simulator's time-ordered queue, shared by the
// system event scheduler and the NoC's in-flight message set.
//
// Elements are ordered by (time, seq), so equal-time elements leave in
// push order when seq increases with each push. The heap itself holds only
// 24-byte (time, seq, slot) keys; the values live in a slab indexed by
// slot, reused through a free list. Sifting moves keys, never the
// ~100-byte values, and steady-state pushes allocate nothing. The sift
// loops are written against the concrete key type rather than through
// container/heap, whose `any` interface would box every element.
package timeq

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

// Queue is a min-queue of values ordered by (time, seq). The zero value
// is empty and ready to use.
type Queue[T any] struct {
	keys []key   // binary min-heap
	slab []T     // values, indexed by key.slot
	free []int32 // vacated slab slots
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.keys) }

// Peek returns the earliest queued time, or false when the queue is
// empty.
func (q *Queue[T]) Peek() (int64, bool) {
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].time, true
}

// Push queues v at the given time; seq breaks ties between equal times.
func (q *Queue[T]) Push(time, seq int64, v T) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = v
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, v)
	}
	h := append(q.keys, key{time: time, seq: seq, slot: slot})
	q.keys = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes and returns the earliest value with its time and seq. The
// queue must not be empty.
func (q *Queue[T]) Pop() (time, seq int64, v T) {
	h := q.keys
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.keys = h
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
	v = q.slab[top.slot]
	var zero T
	q.slab[top.slot] = zero // drop references the value held
	q.free = append(q.free, top.slot)
	return top.time, top.seq, v
}

// Each calls fn for every queued value in heap order (diagnostics).
func (q *Queue[T]) Each(fn func(time, seq int64, v *T)) {
	for _, k := range q.keys {
		fn(k.time, k.seq, &q.slab[k.slot])
	}
}
