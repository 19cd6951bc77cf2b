package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinBarrier is the rendezvous used by the parallel clock loop: a
// sense-reversing (generation-counted) barrier over a fixed set of
// participants. The previous implementation — sync.WaitGroup plus a
// wake channel per worker per cycle — cost ~1.7µs per barrier in
// scheduler round trips; here the steady-state cost is two atomic
// operations per participant plus a bounded spin, because a worker
// that arrives while its peers are still clocking almost always sees
// the generation advance within a few hundred loads.
//
// Protocol: every participant calls await. The last arriver of a
// generation resets the count, advances the generation and wakes any
// parked peers; everyone else spins on the generation counter for
// spinBudget iterations (yielding the processor periodically, so a
// host with fewer cores than participants still makes progress) and
// then parks on a condition variable. The same barrier object serves
// both the release rendezvous (coordinator publishes the next cycle)
// and the join rendezvous (all shards finished the cycle) — the two
// are simply alternating generations.
//
// Memory ordering: a participant's writes before await happen-before
// every other participant's reads after await, through the count
// add/reset and the generation load — all sync/atomic operations,
// which the race detector also recognizes.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32

	mu     sync.Mutex
	cond   *sync.Cond
	parked int // guarded by mu
}

// spinBudget bounds the busy-wait before a participant parks. At
// ~1ns per atomic load this is a few microseconds — longer than any
// healthy shard imbalance, far shorter than a descheduled peer.
const spinBudget = 4096

func newSpinBarrier(n int) *spinBarrier {
	b := &spinBarrier{n: int32(n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n participants have called it (for the
// current generation), then returns in every participant.
func (b *spinBarrier) await() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		// Last arriver: reset for the next generation before opening
		// this one. Peers cannot re-enter await until they observe the
		// generation change, so the reset never races their Add.
		b.count.Store(0)
		b.gen.Add(1)
		b.mu.Lock()
		if b.parked > 0 {
			b.cond.Broadcast()
		}
		b.mu.Unlock()
		return
	}
	for i := 0; i < spinBudget; i++ {
		if b.gen.Load() != g {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	b.parked++
	for b.gen.Load() == g {
		b.cond.Wait()
	}
	b.parked--
	b.mu.Unlock()
}
