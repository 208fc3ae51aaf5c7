package cu

import (
	"math"
	"math/bits"
)

// Group drives the CUs of one machine. It ticks only the awake ones and
// keeps the device-wide barrier-waiter and retired-warp counts, which
// the CUs update as they change, so the driver reads both in O(1).
//
// A CU whose Tick changed nothing and whose wake hint is beyond the next
// cycle falls asleep (see CU.sleep): it is neither ticked nor polled
// until its hint comes due or something wakes it — a completion, a
// release-flush callback or a barrier release. Its Tick would repeat the
// one that put it to sleep on every processed cycle in between, so
// instead of being charged per cycle, its issue stalls (idleStalls) are
// charged in one step when it wakes, or at Settle: idleStalls times the
// number of processed cycles it slept through. The sum is the same.
type Group struct {
	cus []*CU
	// awake has bit i set while cus[i] is awake.
	awake []uint64
	// ticks counts the Ticks so far: the processed cycles, each of which
	// charges a sleeping CU idleStalls.
	ticks int64
	// nextWake is the earliest hint over the sleeping CUs (MaxInt64 when
	// none is due), and is recomputed first when stale is set.
	nextWake int64
	stale    bool
	// parked counts the CUs asleep behind their coalescer head; while
	// any is, the next cycle is work (see CU.sleep).
	parked int

	waiters int // warps parked at a barrier
	retired int // warps retired
}

// NewGroup makes the CUs one group, all awake. Call before placing
// warps.
func NewGroup(cus []*CU) *Group {
	g := &Group{cus: cus, awake: make([]uint64, (len(cus)+63)/64), nextWake: math.MaxInt64}
	for i, c := range cus {
		c.group, c.idx = g, i
		g.awake[i/64] |= 1 << (i % 64)
	}
	return g
}

// BarrierWaiters returns the number of warps parked at a barrier.
func (g *Group) BarrierWaiters() int { return g.waiters }

// RetiredWarps returns the number of retired warps.
func (g *Group) RetiredWarps() int { return g.retired }

// Awake calls fn for each awake CU's index, in order.
func (g *Group) Awake(fn func(i int)) {
	for w, word := range g.awake {
		for ; word != 0; word &= word - 1 {
			fn(w*64 + bits.TrailingZeros64(word))
		}
	}
}

// Tick advances the group one processed cycle: CUs whose hint is due
// wake, then every awake CU ticks in index order (see CU.Tick for
// quiet).
func (g *Group) Tick(cycle int64, quiet bool) {
	if g.stale {
		g.recompute()
	}
	if g.nextWake <= cycle {
		for _, c := range g.cus {
			if c.asleep() && c.sleepUntil <= cycle {
				c.wake()
			}
		}
		g.recompute()
	}
	// After each Tick the rest of the word is read afresh, so a CU woken
	// meanwhile still ticks, in index order.
	for w := range g.awake {
		for word := g.awake[w]; word != 0; {
			b := bits.TrailingZeros64(word)
			g.cus[w*64+b].Tick(cycle, quiet)
			word = g.awake[w] &^ (uint64(2)<<b - 1)
		}
	}
	g.ticks++
}

// NextWork returns the earliest cycle any CU can make progress on its
// own, or -1 (see CU.NextWork). It polls the awake CUs only; with sleep
// set it first offers each of them sleep, as the skipping driver does.
// A sleeping CU's hint is the cycle it wakes at. A CU that is done (every
// warp retired, nothing queued) sleeps either way: its Tick can change
// nothing and counts no stalls, and it never has work again.
func (g *Group) NextWork(cycle int64, sleep bool) int64 {
	next := int64(-1)
	for w, word := range g.awake {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			c := g.cus[w*64+b]
			wake := c.NextWork(cycle)
			if (sleep || c.Done()) && c.sleep(cycle, wake) {
				g.awake[w] &^= 1 << b
				c.sleptAt = g.ticks
				if c.sleepUntil < g.nextWake {
					g.nextWake = c.sleepUntil
				}
				if c.parked {
					g.parked++
				}
			}
			if wake >= 0 && (next < 0 || wake < next) {
				next = wake
			}
		}
	}
	if g.stale {
		g.recompute()
	}
	if g.nextWake != math.MaxInt64 && (next < 0 || g.nextWake < next) {
		next = g.nextWake
	}
	if g.parked > 0 {
		next = cycle + 1
	}
	return next
}

// L1Touched wakes the CU parked behind its coalescer head, if any, on
// the node whose L1 received a delivery or ticked this cycle.
func (g *Group) L1Touched(i int) {
	if c := g.cus[i]; c.parked {
		c.wake()
	}
}

// Settle charges every sleeping CU the issue stalls of the processed
// cycles it has slept through so far, so the Stats read exactly as if
// each had been ticked on every one: before a probe sample, at the end
// of a run and in diagnostics.
func (g *Group) Settle() {
	for _, c := range g.cus {
		if c.asleep() {
			c.settle()
		}
	}
}

// woke returns a CU to the awake set; its charges are settled.
func (g *Group) woke(c *CU, until int64) {
	g.awake[c.idx/64] |= 1 << (c.idx % 64)
	if c.parked {
		c.parked = false
		g.parked--
	}
	if until == g.nextWake {
		g.stale = true
	}
}

// recompute refreshes nextWake from the sleeping CUs.
func (g *Group) recompute() {
	g.nextWake = math.MaxInt64
	for _, c := range g.cus {
		if c.asleep() && c.sleepUntil < g.nextWake {
			g.nextWake = c.sleepUntil
		}
	}
	g.stale = false
}
