package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/fragemu"
	"attila/internal/mem"
)

// ColorWrite is one color write unit (ROPc, paper §2.2): it blends
// shaded fragment colors into the framebuffer through a color cache
// with fast color clear, implementing all OpenGL blend update
// functions.
type ColorWrite struct {
	core.BoxBase
	cfg     *Config
	pool    *pipePool
	cache   *mem.Cache
	quadIns []*Flow

	queue      core.FIFO[*Quad]
	headLooked bool

	// Fast-clear block state, kept per color buffer (double
	// buffering): buffer base address -> per-block cleared flag.
	clearFlags map[uint32][]bool
	clearVals  map[uint32][4]byte
	clearValue [4]byte

	clearPending bool
	flushPending bool
	flushIssued  bool
	cp           *core.BoxBase // woken as a clear or flush completes

	layoutFn func() SurfaceLayout // draw buffer (changes on swap)

	statQuads core.Progress
	statFrags core.Progress
	statBusy  core.Counter
	statStall core.Counter
}

// NewColorWrite builds ROPc unit idx. layoutFn returns the current
// draw color buffer (double buffering swaps it).
func NewColorWrite(sim *core.Simulator, cfg *Config, idx int, pool *pipePool,
	layoutFn func() SurfaceLayout, quadIns []*Flow) *ColorWrite {
	c := &ColorWrite{
		cfg: cfg, pool: pool, quadIns: quadIns, layoutFn: layoutFn,
		clearFlags: make(map[uint32][]bool),
		clearVals:  make(map[uint32][4]byte),
		clearValue: [4]byte{0, 0, 0, 255},
	}
	c.Init(nameIdx("ColorWrite", idx))
	cc := mem.CacheConfig{
		Name: nameIdx("ColorCache", idx), Owner: c.BoxName(), Sets: cfg.ColorCacheSets, Assoc: cfg.ColorCacheAssoc,
		LineBytes: SurfaceBlockBytes, MissQ: 8, PortLimit: 8,
	}
	c.cache = mem.NewCache(sim, cc, &colorHooks{c: c})
	sim.Stats.ShadowProgress(&c.statQuads, c.BoxName()+".quads")
	sim.Stats.ShadowProgress(&c.statFrags, c.BoxName()+".fragments")
	sim.Stats.ShadowCounter(&c.statBusy, c.BoxName()+".busyCycles")
	sim.Stats.ShadowCounter(&c.statStall, c.BoxName()+".stallCycles")
	sim.Register(c)
	return c
}

// Cache exposes the color cache for statistics.
func (c *ColorWrite) Cache() *mem.Cache { return c.cache }

// StartClear begins a fast color clear.
func (c *ColorWrite) StartClear(value [4]byte) {
	c.Wake()
	c.clearPending = true
	c.clearValue = value
}

// ClearDone reports clear completion.
func (c *ColorWrite) ClearDone() bool { return !c.clearPending }

// StartFlush begins writing back dirty color lines (frame end).
func (c *ColorWrite) StartFlush() {
	c.Wake()
	c.flushPending = true
	c.flushIssued = false
}

// FlushDone reports flush completion.
func (c *ColorWrite) FlushDone() bool { return !c.flushPending }

// Clock implements core.Box.
func (c *ColorWrite) Clock(cycle int64) {
	c.cache.Clock(cycle)

	if c.clearPending {
		if c.queue.Len() == 0 && c.cache.Quiesce() {
			flags := c.flags()
			for i := range flags {
				flags[i] = true
			}
			c.clearVals[c.layoutFn().Base] = c.clearValue
			c.cache.InvalidateAll()
			c.clearPending = false
			c.cp.Wake()
		}
		return
	}
	if c.flushPending {
		if c.queue.Len() == 0 && stepFlush(&c.BoxBase, c.cache, cycle, &c.flushIssued) {
			c.flushPending = false
			c.cp.Wake()
		}
		return
	}

	for _, in := range c.quadIns {
		for _, obj := range in.Recv(cycle) {
			q := obj.(*Quad)
			q.srcFlow = in
			c.queue.Push(q)
		}
	}
	if c.queue.Len() == 0 {
		// Until a quad is written to one of quadIns, a reply to the
		// cache's port, or the command processor starts a clear or flush.
		if c.cache.Still() {
			c.Park()
		}
		return
	}

	q := c.queue.Peek()
	st := q.Batch.State
	mask := st.ColorMask
	if !mask[0] && !mask[1] && !mask[2] && !mask[3] {
		// Depth-only or stencil-only pass: no color traffic.
		c.retire(q)
		c.statBusy.Inc()
		return
	}

	layout := c.layoutFn()
	key := layout.BlockAddr(q.X, q.Y)
	// One lookup per quad: the line stays put until the next
	// RequestFill or cache.Clock, neither of which is below.
	line := c.cache.Resident(key)
	if line == nil {
		if !c.headLooked { // count the miss once
			c.cache.Miss()
			c.headLooked = true
		}
		queued := c.cache.RequestFill(cycle, key)
		c.statStall.Inc()
		parkOnMiss(&c.BoxBase, c.cache, queued, &c.statStall)
		return
	}
	if !c.headLooked { // a quad that missed was counted then
		c.cache.Hit(cycle, line)
	}

	for l := 0; l < 4; l++ {
		if !q.Mask[l] {
			continue
		}
		px, py := q.X+l%2, q.Y+l/2
		off := layout.Offset(px, py)
		buf := [4]byte(line.Data()[off:])
		dst := fragemu.UnpackColor(buf)
		blended := fragemu.Blend(st.Blend, q.Color[l], dst)
		out := fragemu.ApplyColorMask(mask, buf, fragemu.PackColor(blended))
		if out != buf {
			line.Write(off, out[:])
		}
		c.statFrags.Inc()
	}
	c.statQuads.Inc()
	c.statBusy.Inc()
	c.retire(q)
}

func (c *ColorWrite) retire(q *Quad) {
	q.srcFlow.Release(1)
	q.srcFlow = nil
	c.queue.Pop()
	c.headLooked = false
	q.Batch.retireQuads(1)
	c.pool.retireQuad(q)
}

// flags returns (creating if needed) the clear-state array for the
// current draw buffer.
func (c *ColorWrite) flags() []bool {
	layout := c.layoutFn()
	f, ok := c.clearFlags[layout.Base]
	if !ok {
		f = make([]bool, layout.NumBlocks())
		c.clearFlags[layout.Base] = f
	}
	return f
}

// BlockClear reports whether a block of the buffer at base is in fast
// clear state (its data exists only on chip) and the clear color; the
// DAC uses it to synthesize never-written blocks without memory
// reads.
func (c *ColorWrite) BlockClear(base uint32, idx int) (bool, [4]byte) {
	f, ok := c.clearFlags[base]
	if !ok || idx < 0 || idx >= len(f) || !f[idx] {
		return false, [4]byte{}
	}
	return true, c.clearVals[base]
}

// colorHooks implement fast color clear for the color cache; lines
// are otherwise stored verbatim (the paper lists color compression as
// future work).
type colorHooks struct{ c *ColorWrite }

func (h *colorHooks) blockIdx(key uint32) int {
	return int(key-h.c.layoutFn().Base) / SurfaceBlockBytes
}

// FillPlan implements mem.Hooks.
func (h *colorHooks) FillPlan(key uint32) mem.FillPlan {
	flags := h.c.flags()
	idx := h.blockIdx(key)
	if idx >= 0 && idx < len(flags) && flags[idx] {
		return mem.FillPlan{Synth: true}
	}
	return mem.FillPlan{FetchAddr: key, FetchBytes: SurfaceBlockBytes}
}

// Synthesize implements mem.Hooks.
func (h *colorHooks) Synthesize(key uint32, line []byte) {
	val := h.c.clearVals[h.c.layoutFn().Base]
	for i := 0; i < len(line); i += 4 {
		copy(line[i:], val[:])
	}
}

// Decode implements mem.Hooks.
func (h *colorHooks) Decode(key uint32, raw, line []byte) { copy(line, raw) }

// Encode implements mem.Hooks: once written back, the block is real
// memory, not clear state.
func (h *colorHooks) Encode(key uint32, line []byte) (uint32, []byte) {
	flags := h.c.flags()
	idx := h.blockIdx(key)
	if idx >= 0 && idx < len(flags) {
		flags[idx] = false
	}
	return key, line
}
