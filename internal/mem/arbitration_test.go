package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refControllerClock is Controller.Clock and schedule at ab1d5eb, kept
// as the model: every free channel walks every client from the
// round-robin pointer, every cycle, whether or not anything is queued.
// It does not keep c.queued.
func refControllerClock(c *Controller, cycle int64) {
	for _, cl := range c.clients {
		for _, obj := range cl.req.Read(cycle) {
			req := obj.(*Request)
			if sp := req.spent; sp != nil {
				req.spent = nil
				c.replies.Put(sp)
			}
			cl.queue.Push(req)
		}
	}
	busy := false
	for i := range c.chans {
		ch := &c.chans[i]
		if ch.active {
			busy = true
			if cycle >= ch.current.done {
				c.complete(cycle, &ch.current)
				ch.active = false
			}
		}
	}
	if busy {
		c.statBusy.Inc()
	}
	for i := range c.chans {
		ch := &c.chans[i]
		if ch.active {
			continue
		}
		refSchedule(c, cycle, i, ch)
	}
}

func refSchedule(c *Controller, cycle int64, chIdx int, ch *channelState) {
	n := len(c.clients)
	for k := 0; k < n; k++ {
		ci := (c.rr + k) % n
		cl := c.clients[ci]
		if cl.queue.Len() == 0 {
			continue
		}
		req := cl.queue.Peek()
		if c.channelOf(req.Addr) != chIdx {
			continue
		}
		cl.queue.Pop()
		c.rr = (ci + 1) % n

		var fa FaultAction
		if c.fault != nil {
			fa = c.fault.OnTransaction(cycle, cl.name, req.Addr, req.Op == OpWrite)
		}
		if fa.Drop {
			return
		}
		dur := (req.Size + c.cfg.ChannelBW - 1) / c.cfg.ChannelBW
		dur += fa.ExtraLatency
		page := req.Addr / c.cfg.PageSize
		if !ch.hasPage || ch.openPage != page {
			dur += c.cfg.PagePenalty
			ch.openPage = page
			ch.hasPage = true
			c.statPageMiss.Inc()
		}
		if ch.issued && ch.lastOp != req.Op {
			if req.Op == OpWrite {
				dur += c.cfg.ReadToWrite
			} else {
				dur += c.cfg.WriteToRead
			}
			c.statTurnaround.Inc()
		}
		ch.lastOp = req.Op
		ch.issued = true
		dur += c.cfg.BaseLatency
		ch.current = inflight{req: req, client: ci, done: cycle + int64(dur), dup: fa.Duplicate}
		ch.active = true
		return
	}
}

// grantLog is a TxFault that records every arbitration decision and
// drops two of them.
type grantLog struct {
	c      *Controller
	grants []string
}

func (g *grantLog) OnTransaction(cycle int64, client string, addr uint32, write bool) FaultAction {
	g.grants = append(g.grants, fmt.Sprintf("%d %s ch%d", cycle, client, g.c.channelOf(addr)))
	return FaultAction{Drop: len(g.grants) == 40 || len(g.grants) == 300, ExtraLatency: len(g.grants) % 3}
}

// The controller grants the same client the same channel in the same
// cycle as the model, through bursts that fill the queues and pauses in
// which they drain to empty, dropped transactions included; and the
// count of queued requests is the sum of the queue lengths throughout,
// so it is zero whenever the machine may be checkpointed.
func TestArbitrationMatchesReference(t *testing.T) {
	clients := []string{"A", "B", "C", "D", "E"}
	cfg := DefaultControllerConfig()
	got := newMCHarness(t, cfg, 1<<20, clients...)
	want := newMCHarness(t, cfg, 1<<20, clients...)
	gotLog, wantLog := &grantLog{c: got.mc}, &grantLog{c: want.mc}
	got.mc.SetFault(gotLog)
	want.mc.SetFault(wantLog)

	rng := rand.New(rand.NewSource(9))
	payload := make([]byte, TransactionSize)
	drained, refilled := 0, 0
	wasEmpty := true
	for cycle := int64(0); cycle < 30000; cycle++ {
		// Heavy bursts fill the queues, light ones let them drain and
		// refill every few cycles, and between bursts nothing arrives.
		bursting, light := cycle%1500 < 900, cycle/1500%2 == 1
		for ci := range clients {
			// Client E is quiet most of the time: an empty queue inside
			// the round robin.
			if !bursting || rng.Intn(4) == 0 || light && rng.Intn(60) > 0 || ci == 4 && rng.Intn(8) > 0 {
				continue
			}
			if !got.ports[ci].CanIssue() {
				continue
			}
			addr := uint32(rng.Intn(1<<20-TransactionSize)) &^ 15
			size := 16 * (1 + rng.Intn(TransactionSize/16))
			write := rng.Intn(3) == 0
			for _, h := range []*mcHarness{got, want} {
				if write {
					h.ports[ci].Write(cycle, addr, payload[:size], 0)
				} else {
					h.ports[ci].Read(cycle, addr, size, 0)
				}
			}
		}
		got.mc.Clock(cycle)
		refControllerClock(want.mc, cycle)
		for ci := range clients {
			a, b := got.ports[ci].Replies(cycle), want.ports[ci].Replies(cycle)
			if len(a) != len(b) {
				t.Fatalf("cycle %d client %s: %d replies, reference %d", cycle, clients[ci], len(a), len(b))
			}
		}

		queued := 0
		for _, cl := range got.mc.clients {
			queued += cl.queue.Len()
		}
		if got.mc.queued != queued {
			t.Fatalf("cycle %d: queued = %d, the queues hold %d", cycle, got.mc.queued, queued)
		}
		if !got.mc.Pending() && got.mc.queued != 0 {
			t.Fatalf("cycle %d: %d requests queued on a controller that reports nothing pending", cycle, got.mc.queued)
		}
		switch empty := queued == 0; {
		case empty && !wasEmpty:
			drained++
			wasEmpty = true
		case !empty && wasEmpty:
			refilled++
			wasEmpty = false
		}
	}
	if !slices.Equal(gotLog.grants, wantLog.grants) {
		for i := range gotLog.grants {
			if i >= len(wantLog.grants) || gotLog.grants[i] != wantLog.grants[i] {
				t.Fatalf("grant %d: %q, reference %q", i, gotLog.grants[i], wantLog.grants[min(i, len(wantLog.grants)-1)])
			}
		}
		t.Fatalf("%d grants, reference %d", len(gotLog.grants), len(wantLog.grants))
	}
	for _, name := range got.sim.Stats.Names() {
		if a, b := got.sim.Stats.Lookup(name).Value(), want.sim.Stats.Lookup(name).Value(); a != b {
			t.Errorf("%s = %v, reference %v", name, a, b)
		}
	}
	if len(gotLog.grants) < 1000 || drained < 50 || refilled < 50 {
		t.Fatalf("%d grants, queues drained %d times and refilled %d times: too little happened", len(gotLog.grants), drained, refilled)
	}
}

// BenchmarkCacheHit is one access to a resident line the way the
// texture unit makes it: find the line, count the hit, read four bytes.
func BenchmarkCacheHit(b *testing.B) {
	h := newCacheHarness(b, DefaultCacheConfig("C"), PassThrough{})
	keys := make([]uint32, 32)
	for i := range keys {
		keys[i] = uint32(i) * 256
		h.fetchLine(b, keys[i])
	}
	sum := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln := h.cache.Resident(keys[i&31])
		h.cache.Hit(h.cycle, ln)
		sum += int(ln.Data()[(i&15)*16])
	}
	b.StopTimer()
	if hits, misses := h.cache.HitMissCounts(); hits != float64(b.N) || misses != 0 || sum != 0 {
		b.Fatalf("%v hits, %v misses in %d accesses of zeroed lines summing to %d", hits, misses, b.N, sum)
	}
}
