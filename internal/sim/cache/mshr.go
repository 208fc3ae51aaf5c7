package cache

import "rats/internal/probe"

// Waiter is one request parked on an MSHR entry: either a transaction
// (Txn holds an opaque pointer supplied by the controller — boxing a
// pointer allocates nothing) or, when Txn is nil, a store-buffer entry
// awaiting ownership. The concrete union avoids boxing the by-value
// SBEntry through `any` on every coalesce.
type Waiter struct {
	Txn   any
	Store SBEntry
}

// MSHR is a miss-status holding register file keyed by line address.
// Multiple requests to the same line coalesce into one entry — the
// mechanism that lets DeNovo's L1 absorb bursts of overlapped atomics to
// a hot address with a single ownership request (Section 5 of the paper).
// Like hardware MSHRs, each entry holds a bounded number of coalescing
// targets.
type MSHR struct {
	capacity int
	targets  int
	// entries indexes the live entries by line address.
	entries *Index[*MSHREntry]
	// free recycles released entries (and their waiter backing arrays);
	// steady-state miss handling allocates nothing.
	free []*MSHREntry

	// probe, when non-nil, receives alloc/coalesce events attributed to
	// node (the owning L1).
	probe *probe.Hub
	node  int
}

// MSHREntry tracks one outstanding line request.
type MSHREntry struct {
	LineAddr uint64
	// Waiters are the requests parked on the entry, drained when the
	// response arrives.
	Waiters []Waiter
	// WantOwnership marks the entry as an ownership (store/atomic) miss
	// rather than a read miss.
	WantOwnership bool
}

// NewMSHR builds an MSHR file with the given entry capacity and
// per-entry target count.
func NewMSHR(capacity, targets int) *MSHR {
	return &MSHR{capacity: capacity, targets: targets, entries: NewIndex[*MSHREntry](capacity)}
}

// AttachProbe routes alloc/coalesce events to the hub, attributed to the
// owning L1's node.
func (m *MSHR) AttachProbe(h *probe.Hub, node int) {
	m.probe = h
	m.node = node
}

// CanCoalesce reports whether the entry has a free target slot.
func (m *MSHR) CanCoalesce(e *MSHREntry) bool { return len(e.Waiters) < m.targets }

// Coalesce parks a request on an existing entry, attributed to the
// joining transaction (txn, 0 when none). The caller must have checked
// CanCoalesce.
func (m *MSHR) Coalesce(e *MSHREntry, w Waiter, txn int64) {
	e.Waiters = append(e.Waiters, w)
	if h := m.probe; h != nil {
		h.Emit(probe.Event{Cycle: h.Now(), Comp: probe.CompL1, Node: m.node, Warp: -1,
			Kind: probe.MSHRCoalesce, Txn: txn, Addr: e.LineAddr, Arg: int64(len(e.Waiters))})
	}
}

// Lookup returns the entry for a line, or nil.
func (m *MSHR) Lookup(lineAddr uint64) *MSHREntry {
	e, _ := m.entries.Get(lineAddr)
	return e
}

// Full reports whether a new entry cannot be allocated.
func (m *MSHR) Full() bool { return m.entries.Len() >= m.capacity }

// Allocate creates an entry for the line, attributed to the allocating
// transaction (txn, 0 when none). The caller must have checked Full and
// Lookup.
func (m *MSHR) Allocate(lineAddr uint64, wantOwnership bool, txn int64) *MSHREntry {
	if m.Full() {
		panic("cache: MSHR allocate when full")
	}
	if _, dup := m.entries.Get(lineAddr); dup {
		panic("cache: MSHR double allocate")
	}
	var e *MSHREntry
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free = m.free[:n-1]
		e.LineAddr = lineAddr
		e.WantOwnership = wantOwnership
	} else {
		e = &MSHREntry{LineAddr: lineAddr, WantOwnership: wantOwnership}
	}
	m.entries.Put(lineAddr, e)
	if h := m.probe; h != nil {
		own := int64(0)
		if wantOwnership {
			own = 1
		}
		h.Emit(probe.Event{Cycle: h.Now(), Comp: probe.CompL1, Node: m.node, Warp: -1,
			Kind: probe.MSHRAlloc, Txn: txn, Addr: lineAddr, Arg: own})
	}
	return e
}

// Release removes the entry, appends its waiters to buf (use a reusable
// scratch sliced to zero length), and recycles the entry. The returned
// slice aliases buf's backing array, not the entry's.
func (m *MSHR) Release(lineAddr uint64, buf []Waiter) []Waiter {
	e, ok := m.entries.Delete(lineAddr)
	if !ok {
		panic("cache: MSHR release of absent entry")
	}
	buf = append(buf, e.Waiters...)
	for i := range e.Waiters {
		e.Waiters[i] = Waiter{}
	}
	e.Waiters = e.Waiters[:0]
	m.free = append(m.free, e)
	return buf
}

// Outstanding returns the number of live entries.
func (m *MSHR) Outstanding() int { return m.entries.Len() }
