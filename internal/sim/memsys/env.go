package memsys

import (
	"rats/internal/core"
	"rats/internal/fault"
	"rats/internal/probe"
	"rats/internal/sim/noc"
	"rats/internal/stats"
)

// Env bundles the shared infrastructure every memory-system component
// uses: the interconnect, the statistics sink, the global functional
// value layer, and the event scheduler provided by the system driver.
type Env struct {
	Cfg   *Config
	Mesh  *noc.Mesh
	Stats *stats.Stats
	// Values is the functional value layer, indexed by word (see Read
	// and Write). Atomic operations read-modify-write it at the point
	// (and simulated time) they perform — at the L2 bank under GPU
	// coherence, at the owning L1 under DeNovo — so workload functional
	// checks hold under every configuration.
	Values Values
	// At schedules a deferred continuation to run at the given cycle
	// (>= current). Same-cycle continuations must fire in scheduling
	// order (FIFO) — protocol handlers rely on it.
	At func(cycle int64, d Deferred)
	// Probe is the observability hub, or nil when disabled. Emission
	// sites guard with a nil check so disabled runs pay nothing.
	Probe *probe.Hub
	// Fault is the fault injector, or nil when disabled. Injection sites
	// guard with a nil check so clean runs pay nothing.
	Fault *fault.Injector
	// WarpSeq numbers warps globally in placement order (probe warp
	// ids).
	WarpSeq int
}

// ApplyAtomic performs an atomic on the value layer and returns the old
// value.
func (e *Env) ApplyAtomic(addr uint64, aop core.AtomicOp, operand int64) int64 {
	w := addr / e.Cfg.WordSize
	old := e.Values.Get(w)
	e.Values.Set(w, aop.Apply(old, operand, 0))
	return old
}

// Read returns the current functional value of the word holding a byte
// address.
func (e *Env) Read(addr uint64) int64 { return e.Values.Get(addr / e.Cfg.WordSize) }

// Write sets the functional value of the word holding a byte address.
func (e *Env) Write(addr uint64, v int64) { e.Values.Set(addr/e.Cfg.WordSize, v) }

// Txn is one memory transaction handed from a compute unit to its L1:
// either a coalesced per-line load, a coalesced per-line store, or a
// per-lane atomic.
type Txn struct {
	ID      int64
	Kind    TxnKind
	Addr    uint64 // byte address (line-representative for loads/stores)
	Class   core.Class
	AOp     core.AtomicOp
	Operand int64
	// Warp is the issuing warp's global id (probe attribution); -1 for
	// transactions not tied to a warp.
	Warp int
	// LocalScope marks an HRF work-group-scoped atomic: it may perform at
	// the L1 without coherence actions (the programmer guarantees no
	// cross-CU access between global synchronizations).
	LocalScope bool
	// Done receives the completion callback exactly once; value is
	// meaningful for atomics. An interface rather than a func so issuers
	// can register themselves (a pointer — no per-transaction closure).
	Done Completer
	// Owner and Group are opaque completion bookkeeping for the issuing
	// compute unit (which instruction this transaction belongs to).
	Owner any
	Group int32
}

// Completer receives a transaction's completion.
type Completer interface {
	// TxnDone is invoked exactly once when t completes; value is
	// meaningful for atomics. The transaction may be recycled by its
	// issuer once TxnDone returns — no component may retain t past it.
	TxnDone(t *Txn, cycle, value int64)
}

// DoneFunc adapts a plain function to Completer (tests and ad-hoc
// issuers).
type DoneFunc func(cycle, value int64)

// TxnDone implements Completer.
func (f DoneFunc) TxnDone(_ *Txn, cycle, value int64) { f(cycle, value) }

// TxnKind distinguishes transaction types at the L1.
type TxnKind uint8

const (
	// TxnLoad is a coalesced data load of one line.
	TxnLoad TxnKind = iota
	// TxnStore is a coalesced data store to one line.
	TxnStore
	// TxnAtomic is a single-lane atomic operation.
	TxnAtomic
)

func (k TxnKind) String() string {
	switch k {
	case TxnLoad:
		return "load"
	case TxnStore:
		return "store"
	default:
		return "atomic"
	}
}
