package mem

import (
	"fmt"

	"attila/internal/core"
	"attila/internal/obsv/trace"
)

// CacheConfig describes one of the GPU's small caches (Table 2:
// texture, Z and color caches are all 16 KB, 4-way, 256-byte lines).
type CacheConfig struct {
	Name string
	// Owner is the box that clocks the cache: the port's wires are
	// registered under Name, and a reply written to it wakes Owner.
	Owner     string
	Sets      int
	Assoc     int
	LineBytes int // decoded line size held in the cache
	MissQ     int // outstanding miss limit
	PortLimit int // outstanding memory transactions
}

// DefaultCacheConfig returns the Table 2 geometry: 16 KB, 4-way
// associative with 256-byte lines (16 sets).
func DefaultCacheConfig(name string) CacheConfig {
	return CacheConfig{Name: name, Sets: 16, Assoc: 4, LineBytes: 256, MissQ: 8, PortLimit: 8}
}

// Size returns the cache capacity in bytes.
func (c CacheConfig) Size() int { return c.Sets * c.Assoc * c.LineBytes }

// FillPlan tells the cache how to obtain a missing line. Fast-cleared
// framebuffer blocks are synthesized on chip without any memory
// traffic; compressed blocks fetch fewer bytes than the decoded line.
type FillPlan struct {
	Synth      bool
	FetchAddr  uint32
	FetchBytes int // 0 means the decoded line size
}

// Hooks customize a cache for its owner unit: the Z cache plugs in
// fast clear, compression and decompression; the texture cache plugs
// in tile decompression; the color cache plugs in fast clear.
type Hooks interface {
	// FillPlan decides how to obtain the line identified by key.
	FillPlan(key uint32) FillPlan
	// Synthesize fills a line without memory access (Synth plans).
	Synthesize(key uint32, line []byte)
	// Decode expands fetched memory bytes into the decoded line.
	Decode(key uint32, raw, line []byte)
	// Encode packs a dirty line for writeback, returning the target
	// address and the bytes to write (compression shrinks them).
	Encode(key uint32, line []byte) (addr uint32, raw []byte)
}

// PassThrough implements Hooks for a plain cache whose lines are
// stored verbatim at their key address.
type PassThrough struct{}

// FillPlan implements Hooks.
func (PassThrough) FillPlan(key uint32) FillPlan { return FillPlan{FetchAddr: key} }

// Synthesize implements Hooks.
func (PassThrough) Synthesize(key uint32, line []byte) {
	panic("mem: PassThrough cannot synthesize lines")
}

// Decode implements Hooks.
func (PassThrough) Decode(key uint32, raw, line []byte) { copy(line, raw) }

// Encode implements Hooks.
func (PassThrough) Encode(key uint32, line []byte) (uint32, []byte) { return key, line }

// Line is one cache line. The owner box holds resident lines by
// pointer (Resident); such a pointer is good until the owner next calls
// RequestFill, InvalidateAll or Clock, the calls that can take a line
// away.
type Line struct {
	valid   bool
	dirty   bool
	pending bool // reserved for a fill in flight
	key     uint32
	lastUse int64
	data    []byte
	// flushNeed is the transaction count FlushDirty found the encoded
	// line to need when the port was too full to take it; 0 is
	// unknown. A memo of unchanged data, not state, and read only
	// while the line is dirty: Write and RestoreFrom, the two ways a
	// line becomes dirty, clear it.
	flushNeed int
}

type missState uint8

const (
	missQueued missState = iota
	missWaitWB
	missWaitFill
)

type missEntry struct {
	key   uint32
	set   int
	way   int
	state missState

	needWB bool
	wbKey  uint32
	wbData []byte
	wbLeft int // outstanding writeback transactions

	plan     FillPlan
	fillBuf  []byte
	fillLeft int // outstanding fill transactions
}

// Cache is the generic timing cache. The owner box clocks it once per
// cycle and accesses lines by key (the decoded line's base address:
// framebuffer block address or texture tile address; keys need not be
// aligned to the decoded line size — compressed texture tiles are
// smaller in memory than in the cache). Misses are queued and
// resolved through the cache's own memory controller port, with dirty
// victims written back before the fill.
type Cache struct {
	cfg     CacheConfig
	hooks   Hooks
	port    *Port
	sets    [][]Line
	miss    []*missEntry
	waiting map[uint64]*missEntry // transaction id -> owning miss

	freeMiss []*missEntry // recycled entries (keep wb/fill buffer backing)

	// moved is set by whatever changes what the next Clock finds: a reply
	// taken, a transaction issued, a line synthesized, a miss queued. Clock
	// clears it on entry (see Still).
	moved bool

	statHits    core.Counter
	statMisses  core.Counter
	statFills   core.Counter
	statEvicts  core.Counter
	statSynth   core.Counter
	statStalled core.Counter
}

// NewCache builds a cache owned by the named client. The port is
// registered with the simulator's binder; the controller must list
// the same client name.
func NewCache(sim *core.Simulator, cfg CacheConfig, hooks Hooks) *Cache {
	c := &Cache{cfg: cfg, hooks: hooks, waiting: make(map[uint64]*missEntry)}
	c.port = NewPort(sim, cfg.Name, cfg.PortLimit)
	if cfg.Owner != "" {
		sim.Binder.Own(cfg.Owner, cfg.Name)
	}
	// Every set is a window of one line array and every line's data a
	// window of one byte array, each capped at its own length: three
	// allocations however large the cache.
	lines := make([]Line, cfg.Sets*cfg.Assoc)
	data := make([]byte, len(lines)*cfg.LineBytes)
	for i := range lines {
		lines[i].data = data[i*cfg.LineBytes : (i+1)*cfg.LineBytes : (i+1)*cfg.LineBytes]
	}
	c.sets = make([][]Line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	sim.Stats.ShadowCounter(&c.statHits, cfg.Name+".hits")
	sim.Stats.ShadowCounter(&c.statMisses, cfg.Name+".misses")
	sim.Stats.ShadowCounter(&c.statFills, cfg.Name+".fills")
	sim.Stats.ShadowCounter(&c.statEvicts, cfg.Name+".evictions")
	sim.Stats.ShadowCounter(&c.statSynth, cfg.Name+".synthFills")
	sim.Stats.ShadowCounter(&c.statStalled, cfg.Name+".missStalls")
	return c
}

// SetTracer installs span tracing on the cache's memory port (nil
// disables). Call before Run.
func (c *Cache) SetTracer(t *trace.Tracer) { c.port.SetTracer(t) }

// HitRate returns the cumulative hit ratio.
func (c *Cache) HitRate() float64 {
	h, m := c.statHits.Value(), c.statMisses.Value()
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// HitMissCounts returns the cumulative lookup counts.
func (c *Cache) HitMissCounts() (hits, misses float64) {
	return c.statHits.Value(), c.statMisses.Value()
}

func (c *Cache) setOf(key uint32) int {
	h, n := (key>>5)^(key>>9)^(key>>13), uint32(c.cfg.Sets)
	if n&(n-1) == 0 {
		return int(h & (n - 1))
	}
	return int(h % n)
}

func (c *Cache) find(key uint32) (set, way int) {
	set = c.setOf(key)
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.key == key && (ln.valid || ln.pending) {
			return set, w
		}
	}
	return set, -1
}

// Data returns the decoded bytes the line holds, for reading; changes
// go through Write.
func (ln *Line) Data() []byte { return ln.data }

// Write stores bytes at off in the line and marks it dirty.
func (ln *Line) Write(off int, src []byte) {
	copy(ln.data[off:], src)
	ln.dirty = true
	ln.flushNeed = 0
}

// Resident returns the line holding key, or nil when it is absent or
// still being filled, without touching statistics or LRU state.
func (c *Cache) Resident(key uint32) *Line {
	if set, w := c.find(key); w >= 0 && c.sets[set][w].valid {
		return &c.sets[set][w]
	}
	return nil
}

// Hit counts a hit on a resident line and marks it used at cycle.
func (c *Cache) Hit(cycle int64, ln *Line) {
	c.statHits.Inc()
	ln.lastUse = cycle
}

// Touch marks a resident line used at cycle, for the LRU choice of a
// later RequestFill, without counting a hit.
func (c *Cache) Touch(cycle int64, ln *Line) { ln.lastUse = cycle }

// AddHits counts n hits, on lines touched for them.
func (c *Cache) AddHits(n int) { c.statHits.Add(float64(n)) }

// Miss counts a miss.
func (c *Cache) Miss() { c.statMisses.Inc() }

// MissStalls is the counter of refused RequestFill calls, for an owner
// box that parks retrying one every cycle (core.BoxBase.ParkCounting).
func (c *Cache) MissStalls() *core.Counter { return &c.statStalled }

// Lookup probes for the line, counting hit/miss statistics. It
// returns true only when the line is resident and usable this cycle.
func (c *Cache) Lookup(cycle int64, key uint32) bool {
	ln := c.Resident(key)
	if ln == nil {
		c.Miss()
		return false
	}
	c.Hit(cycle, ln)
	return true
}

// Probe reports residency without touching statistics or LRU state.
func (c *Cache) Probe(key uint32) bool { return c.Resident(key) != nil }

// Read copies bytes at off within the resident line into dst.
func (c *Cache) Read(key uint32, off int, dst []byte) {
	ln := c.Resident(key)
	if ln == nil {
		panic(fmt.Sprintf("%s: Read of non-resident line %#x", c.cfg.Name, key))
	}
	copy(dst, ln.data[off:])
}

// Write stores bytes into the resident line and marks it dirty.
func (c *Cache) Write(key uint32, off int, src []byte) {
	ln := c.Resident(key)
	if ln == nil {
		panic(fmt.Sprintf("%s: Write of non-resident line %#x", c.cfg.Name, key))
	}
	ln.Write(off, src)
}

// RequestFill queues a miss for the line. It returns false when the
// miss queue is full or no way can be reserved (caller retries next
// cycle). Requesting a resident or already-pending line succeeds
// immediately.
func (c *Cache) RequestFill(cycle int64, key uint32) bool {
	set, w := c.find(key)
	if w >= 0 {
		return true
	}
	if len(c.miss) >= c.cfg.MissQ {
		c.statStalled.Inc()
		return false
	}
	victim := -1
	var oldest int64
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.pending {
			continue
		}
		if !ln.valid {
			victim = i
			break
		}
		if victim < 0 || ln.lastUse < oldest {
			victim = i
			oldest = ln.lastUse
		}
	}
	if victim < 0 {
		c.statStalled.Inc()
		return false
	}
	ln := &c.sets[set][victim]
	entry := c.getMiss()
	entry.key, entry.set, entry.way = key, set, victim
	if ln.valid && ln.dirty {
		entry.needWB = true
		entry.wbKey = ln.key
		entry.wbData = append(entry.wbData[:0], ln.data...)
		c.statEvicts.Inc()
	}
	ln.valid = false
	ln.dirty = false
	ln.pending = true
	ln.key = key
	c.miss = append(c.miss, entry)
	c.moved = true
	return true
}

// Clock advances the miss state machine: collects memory replies,
// then issues writebacks and fills in miss order.
func (c *Cache) Clock(cycle int64) {
	c.moved = false
	if len(c.miss) == 0 && c.port.Idle() {
		return
	}
	for _, rep := range c.port.Replies(cycle) {
		c.moved = true
		e := c.waiting[rep.ReqID]
		if e == nil {
			continue // flush writeback acknowledgements
		}
		delete(c.waiting, rep.ReqID)
		switch e.state {
		case missWaitWB:
			e.wbLeft--
			if e.wbLeft == 0 {
				e.needWB = false
				e.state = missQueued
			}
		case missWaitFill:
			copy(e.fillBuf[rep.Addr-e.plan.FetchAddr:], rep.Data)
			e.fillLeft--
			if e.fillLeft == 0 {
				ln := &c.sets[e.set][e.way]
				c.hooks.Decode(e.key, e.fillBuf, ln.data)
				ln.valid = true
				ln.pending = false
				ln.lastUse = cycle
				c.statFills.Inc()
				c.removeMiss(e)
			}
		}
	}

	for _, e := range c.miss {
		if e.state != missQueued {
			continue
		}
		if e.needWB {
			pieces := transactionsFor(len(e.wbData))
			if c.port.limit-c.port.outstanding < pieces {
				return // wait for port budget; keep miss order
			}
			addr, raw := c.hooks.Encode(e.wbKey, e.wbData)
			pieces = transactionsFor(len(raw))
			e.wbLeft = pieces
			c.moved = true
			for off := 0; off < len(raw); off += TransactionSize {
				end := off + TransactionSize
				if end > len(raw) {
					end = len(raw)
				}
				// Port.Write copies the payload, so raw may be reused.
				id := c.port.Write(cycle, addr+uint32(off), raw[off:end], 0)
				c.waiting[id] = e
			}
			e.state = missWaitWB
			continue
		}
		plan := c.hooks.FillPlan(e.key)
		if plan.FetchBytes == 0 {
			plan.FetchBytes = c.cfg.LineBytes
		}
		if plan.Synth {
			ln := &c.sets[e.set][e.way]
			c.hooks.Synthesize(e.key, ln.data)
			ln.valid = true
			ln.pending = false
			ln.lastUse = cycle
			c.statSynth.Inc()
			c.removeMiss(e)
			c.moved = true
			// c.miss mutated; restart next cycle to keep it simple.
			return
		}
		pieces := transactionsFor(plan.FetchBytes)
		if c.port.limit-c.port.outstanding < pieces {
			return
		}
		e.plan = plan
		if cap(e.fillBuf) >= plan.FetchBytes {
			e.fillBuf = e.fillBuf[:plan.FetchBytes]
		} else {
			e.fillBuf = make([]byte, plan.FetchBytes)
		}
		e.fillLeft = pieces
		c.moved = true
		for off := 0; off < plan.FetchBytes; off += TransactionSize {
			size := plan.FetchBytes - off
			if size > TransactionSize {
				size = TransactionSize
			}
			id := c.port.Read(cycle, plan.FetchAddr+uint32(off), size, 0)
			c.waiting[id] = e
		}
		e.state = missWaitFill
	}
}

func transactionsFor(bytes int) int {
	return (bytes + TransactionSize - 1) / TransactionSize
}

func (c *Cache) removeMiss(target *missEntry) {
	for i, e := range c.miss {
		if e == target {
			c.miss = append(c.miss[:i], c.miss[i+1:]...)
			c.putMiss(e)
			return
		}
	}
}

// getMiss pops a recycled miss entry (zeroed, keeping its buffer
// backing arrays) or allocates one.
func (c *Cache) getMiss() *missEntry {
	if n := len(c.freeMiss); n > 0 {
		e := c.freeMiss[n-1]
		c.freeMiss = c.freeMiss[:n-1]
		wb, fb := e.wbData[:0], e.fillBuf[:0]
		*e = missEntry{}
		e.wbData, e.fillBuf = wb, fb
		return e
	}
	return &missEntry{}
}

func (c *Cache) putMiss(e *missEntry) { c.freeMiss = append(c.freeMiss, e) }

// PendingMisses returns the number of outstanding misses.
func (c *Cache) PendingMisses() int { return len(c.miss) }

// FlushDirty queues writebacks for every dirty line, clearing their
// dirty bits; returns false while some line's writeback could not be
// issued this cycle (call again next cycle). Used at frame boundaries
// so the DAC and the functional comparison read consistent memory.
//
// A line the port has no room for remembers how many transactions its
// encoded form needs, and later calls pass over it without encoding
// until that many slots are free: a flush encodes each line on its
// first cycle and again on the cycle it is written, not once per
// cycle it waits.
func (c *Cache) FlushDirty(cycle int64) bool {
	done := true
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if !ln.valid || !ln.dirty {
				continue
			}
			free := c.port.Free()
			if ln.flushNeed > free {
				done = false
				continue
			}
			addr, raw := c.hooks.Encode(ln.key, ln.data)
			if ln.flushNeed = transactionsFor(len(raw)); ln.flushNeed > free {
				done = false
				continue
			}
			for off := 0; off < len(raw); off += TransactionSize {
				end := off + TransactionSize
				if end > len(raw) {
					end = len(raw)
				}
				c.port.Write(cycle, addr+uint32(off), raw[off:end], 0)
			}
			ln.dirty = false
			c.statEvicts.Inc()
			c.moved = true
		}
	}
	return done
}

// Still reports that since the start of its last Clock the cache took
// no reply, issued no transaction, synthesized no line and queued no
// miss: the next Clock finds what that one found, and so does a
// RequestFill or FlushDirty repeated after it. The owner box may park
// while it holds, waiting for whatever else it waits for; a reply
// written to the port wakes it (CacheConfig.Owner).
func (c *Cache) Still() bool { return !c.moved }

// Quiesce reports whether the cache has no misses or transactions in
// flight.
func (c *Cache) Quiesce() bool {
	return len(c.miss) == 0 && c.port.Outstanding() == 0
}

// InvalidateAll drops every line, discarding dirty data; used after
// fast clears, which make all cached framebuffer data obsolete. The
// cache must be quiesced first.
func (c *Cache) InvalidateAll() {
	if len(c.miss) > 0 {
		panic(fmt.Sprintf("%s: InvalidateAll with misses in flight", c.cfg.Name))
	}
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w].valid = false
			c.sets[s][w].dirty = false
			c.sets[s][w].pending = false
		}
	}
}
