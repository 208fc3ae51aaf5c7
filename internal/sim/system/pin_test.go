//go:build go1.24

package system

import (
	"runtime"
	"testing"
	"weak"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/workloads"
)

// TestResultDoesNotPinSystem: a Result outlives its run in figure sweeps
// and journals, so it must not keep the machine (mesh, caches, CUs,
// queues, trace) reachable. Its Read still answers from the final values.
func TestResultDoesNotPinSystem(t *testing.T) {
	e := workloads.ByName("H")
	s := New(memsys.Default(memsys.ProtoGPU, core.DRF0))
	tr := e.Build(workloads.Test)
	if err := s.Load(tr); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var addr uint64
	var want int64
	for _, w := range tr.Warps {
		for _, op := range w.Ops {
			for _, a := range op.Addrs {
				if v := s.env.Read(a); v != 0 && want == 0 {
					addr, want = a, v
				}
			}
		}
	}
	if want == 0 {
		t.Fatal("run left no nonzero value to read back")
	}
	ws := weak.Make(s)
	s = nil
	runtime.GC()
	if ws.Value() != nil {
		t.Fatal("System still reachable after GC while its Result is live")
	}
	if got := res.Read(addr); got != want {
		t.Errorf("Read(%#x) = %d after GC, want %d", addr, got, want)
	}
	runtime.KeepAlive(res)
}
