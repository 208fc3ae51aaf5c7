package cache

import "math/bits"

// Index maps uint64 keys (line addresses, transaction ids) to values in
// an open-addressed table: linear probing from a Fibonacci hash, at most
// half full, with backward-shift deletion, so there are no tombstones, a
// lookup costs one multiply and a short probe run, and nothing allocates
// once the table has reached its working size: the simulator's
// per-access paths (MSHR lookups, atomic responses) pay no general map
// hashing. The zero value is not usable; see NewIndex.
type Index[V any] struct {
	slots []indexSlot[V]
	shift uint
	n     int
}

type indexSlot[V any] struct {
	key  uint64
	val  V
	used bool
}

// NewIndex returns an empty index sized for capacity live keys (it grows
// past that if it must).
func NewIndex[V any](capacity int) *Index[V] {
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return &Index[V]{slots: make([]indexSlot[V], size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// Len returns the number of keys held.
func (x *Index[V]) Len() int { return x.n }

func (x *Index[V]) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> x.shift) }

// find returns the slot holding key, or the free slot ending its probe
// run.
func (x *Index[V]) find(key uint64) int {
	mask := len(x.slots) - 1
	i := x.home(key)
	for x.slots[i].used && x.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// Get returns key's value and whether it is present.
func (x *Index[V]) Get(key uint64) (V, bool) {
	s := &x.slots[x.find(key)]
	return s.val, s.used
}

// Put sets key's value.
func (x *Index[V]) Put(key uint64, v V) {
	i := x.find(key)
	if !x.slots[i].used {
		if 2*(x.n+1) > len(x.slots) {
			x.grow()
			i = x.find(key)
		}
		x.n++
	}
	x.slots[i] = indexSlot[V]{key: key, val: v, used: true}
}

// Delete removes key, returning its value and whether it was present.
func (x *Index[V]) Delete(key uint64) (V, bool) {
	i := x.find(key)
	v, ok := x.slots[i].val, x.slots[i].used
	if !ok {
		return v, false
	}
	// Move later entries of the probe run back into the hole, so every
	// key stays reachable from its home slot: the entry at j may fill the
	// hole at i unless its home lies cyclically in (i, j].
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].used; j = (j + 1) & mask {
		if h := x.home(x.slots[j].key); (j-h)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot[V]{}
	x.n--
	return v, true
}

// grow doubles the table and reinserts every key.
func (x *Index[V]) grow() {
	old := x.slots
	x.slots = make([]indexSlot[V], 2*len(old))
	x.shift--
	for _, s := range old {
		if s.used {
			x.slots[x.find(s.key)] = s
		}
	}
}
