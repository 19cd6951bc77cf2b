package gpu

import (
	"encoding/binary"
	"strconv"

	"attila/internal/core"
	"attila/internal/emu/fragemu"
	"attila/internal/mem"
)

// zBlockState tracks each depth-stencil framebuffer block for fast
// clear and compression (paper §2.2, after the ATI Hot3D presentation
// and patent): cleared blocks are synthesized on chip, compressed
// blocks fetch and write 1:2 or 1:4 of the line.
type zBlockState uint8

const (
	zStateClear zBlockState = iota
	zStateUncompressed
	zStateHalf
	zStateQuarter
)

// ZStencil is one Z and Stencil Test unit (ROPz): it tests fragment
// quads against the stencil and depth buffer through a Z cache with
// lossless compression and fast clear, culls dead quads, and feeds
// the Hierarchical Z buffer with reference updates on evictions.
type ZStencil struct {
	core.BoxBase
	cfg    *Config
	pool   *pipePool
	layout SurfaceLayout
	cache  *mem.Cache
	hz     *HierarchicalZ

	quadIns  []*Flow // early path from HZ, late path from FragmentFIFO
	earlyOut *Flow   // to interpolator (early-Z path)
	lateOut  *Flow   // to color write (late-Z path)

	queue      core.FIFO[*Quad]
	headLooked bool

	states     []zBlockState
	clearValue uint32

	clearPending bool
	flushPending bool
	flushIssued  bool
	cp           *core.BoxBase // woken as a clear or flush completes

	statQuads  core.Progress
	statFrags  core.Counter
	statCulled core.Progress
	statBusy   core.Counter
	statStall  core.Counter
}

// NewZStencil builds ROPz unit idx.
func NewZStencil(sim *core.Simulator, cfg *Config, idx int, pool *pipePool, layout SurfaceLayout,
	quadIns []*Flow, earlyOut, lateOut *Flow) *ZStencil {
	z := &ZStencil{
		cfg: cfg, pool: pool, layout: layout,
		quadIns: quadIns, earlyOut: earlyOut, lateOut: lateOut,
		states:     make([]zBlockState, layout.NumBlocks()),
		clearValue: fragemu.PackDS(fragemu.MaxDepth, 0),
	}
	z.Init(nameIdx("ZStencil", idx))
	for i := range z.states {
		z.states[i] = zStateUncompressed
	}
	cc := mem.CacheConfig{
		Name: nameIdx("ZCache", idx), Owner: z.BoxName(), Sets: cfg.ZCacheSets, Assoc: cfg.ZCacheAssoc,
		LineBytes: SurfaceBlockBytes, MissQ: 8, PortLimit: 8,
	}
	z.cache = mem.NewCache(sim, cc, &zHooks{z: z})
	sim.Stats.ShadowProgress(&z.statQuads, z.BoxName()+".quads")
	sim.Stats.ShadowCounter(&z.statFrags, z.BoxName()+".fragments")
	sim.Stats.ShadowProgress(&z.statCulled, z.BoxName()+".culledQuads")
	sim.Stats.ShadowCounter(&z.statBusy, z.BoxName()+".busyCycles")
	sim.Stats.ShadowCounter(&z.statStall, z.BoxName()+".stallCycles")
	sim.Register(z)
	return z
}

func nameIdx(base string, idx int) string {
	return base + strconv.Itoa(idx)
}

// SetHZ wires the Hierarchical Z feedback (called by the pipeline
// after both boxes exist).
func (z *ZStencil) SetHZ(hz *HierarchicalZ) { z.hz = hz }

// Cache exposes the Z cache for statistics.
func (z *ZStencil) Cache() *mem.Cache { return z.cache }

// StartClear begins a fast Z/stencil clear to the packed value.
func (z *ZStencil) StartClear(value uint32) {
	z.Wake()
	z.clearPending = true
	z.clearValue = value
}

// ClearDone reports clear completion.
func (z *ZStencil) ClearDone() bool { return !z.clearPending }

// StartFlush begins writing back all dirty Z cache lines.
func (z *ZStencil) StartFlush() {
	z.Wake()
	z.flushPending = true
	z.flushIssued = false
}

// FlushDone reports flush completion.
func (z *ZStencil) FlushDone() bool { return !z.flushPending }

// Clock implements core.Box.
func (z *ZStencil) Clock(cycle int64) {
	z.cache.Clock(cycle)

	if z.clearPending {
		if z.queue.Len() == 0 && z.cache.Quiesce() {
			for i := range z.states {
				z.states[i] = zStateClear
			}
			z.cache.InvalidateAll()
			if z.hz != nil {
				d, _ := fragemu.UnpackDS(z.clearValue)
				z.hz.Clear(d)
			}
			z.clearPending = false
			z.cp.Wake()
		}
		return
	}
	if z.flushPending {
		if z.queue.Len() == 0 && stepFlush(&z.BoxBase, z.cache, cycle, &z.flushIssued) {
			z.flushPending = false
			z.cp.Wake()
		}
		return
	}

	for _, in := range z.quadIns {
		for _, obj := range in.Recv(cycle) {
			q := obj.(*Quad)
			q.srcFlow = in
			z.queue.Push(q)
		}
	}
	if z.queue.Len() == 0 {
		// Until a quad is written to one of quadIns, a reply to the
		// cache's port, or the command processor starts a clear or flush.
		if z.cache.Still() {
			z.Park()
		}
		return
	}

	// One quad per cycle (4 fragments, Table 1).
	q := z.queue.Peek()
	st := q.Batch.State
	if q.ZDone || !st.Depth.Enabled && !st.Stencil.Enabled {
		// Nothing to test, or tested on an earlier cycle but the output
		// was full: only retry the forward, never the (stencil-updating)
		// test.
		if z.forward(cycle, q) {
			z.pop()
			z.statBusy.Inc()
		} else {
			z.statStall.Inc()
			// No credit to forward the quad: until some folds into the
			// output flow.
			parkOnMiss(&z.BoxBase, z.cache, true, &z.statStall)
		}
		return
	}

	key := z.layout.BlockAddr(q.X, q.Y)
	// One lookup per quad: the line stays put until the next
	// RequestFill or cache.Clock, neither of which is below.
	line := z.cache.Resident(key)
	if line == nil {
		if !z.headLooked { // count the miss once
			z.cache.Miss()
			z.headLooked = true
		}
		queued := z.cache.RequestFill(cycle, key)
		z.statStall.Inc()
		parkOnMiss(&z.BoxBase, z.cache, queued, &z.statStall)
		return
	}
	if !z.headLooked { // a quad that missed was counted then
		z.cache.Hit(cycle, line)
	}

	// Test and update each live fragment. With two-sided stencil
	// the back-facing state applies to back-facing triangles.
	stencil := st.Stencil
	if st.TwoSidedStencil && !q.Tri.Tri.FrontFacing {
		stencil = st.StencilBack
		stencil.Enabled = st.Stencil.Enabled
	}
	var buf [4]byte
	for l := 0; l < 4; l++ {
		if !q.Mask[l] {
			continue
		}
		px, py := q.X+l%2, q.Y+l/2
		off := z.layout.Offset(px, py)
		stored := binary.LittleEndian.Uint32(line.Data()[off:])
		res := fragemu.ZStencilTest(st.Depth, stencil, q.Depth[l], stored)
		if res.Out != stored {
			binary.LittleEndian.PutUint32(buf[:], res.Out)
			line.Write(off, buf[:])
		}
		if !res.Pass {
			q.Mask[l] = false
		}
		z.statFrags.Inc()
	}
	q.ZDone = true
	z.statQuads.Inc()
	z.statBusy.Inc()

	if !q.Alive() {
		q.Batch.retireQuads(1)
		q.Batch.ZCulledQuads++
		z.statCulled.Inc()
		z.pop()
		z.pool.retireQuad(q)
		return
	}
	if z.forward(cycle, q) {
		z.pop()
	}
	// If forwarding stalled the quad is retried next cycle; the
	// depth/stencil update is idempotent because the head flag keeps
	// us from re-testing (ZDone short-circuits).
}

func (z *ZStencil) pop() {
	q := z.queue.Pop()
	q.srcFlow.Release(1)
	q.srcFlow = nil
	z.headLooked = false
}

// forward routes the tested quad downstream. It does not count stall
// cycles itself: a cycle is a stall only when the unit did no work at
// all, which the caller knows (a failed forward right after a test is
// still a busy cycle — busyCycles and stallCycles partition time).
func (z *ZStencil) forward(cycle int64, q *Quad) bool {
	out := z.lateOut
	if q.Batch.EarlyZ {
		out = z.earlyOut
	}
	if !out.CanSend(cycle, 1) {
		return false
	}
	out.Send(cycle, q)
	return true
}

// zHooks implements the Z cache's fill/evict behaviour: fast clear,
// compression and HZ feedback.
type zHooks struct {
	z   *ZStencil
	enc []byte // Encode scratch; Port.Write copies payloads, so it is reused per call
}

func (h *zHooks) blockIdx(key uint32) int {
	return int(key-h.z.layout.Base) / SurfaceBlockBytes
}

// FillPlan implements mem.Hooks.
func (h *zHooks) FillPlan(key uint32) mem.FillPlan {
	switch h.z.states[h.blockIdx(key)] {
	case zStateClear:
		return mem.FillPlan{Synth: true}
	case zStateHalf:
		return mem.FillPlan{FetchAddr: key, FetchBytes: fragemu.CompHalf.Bytes()}
	case zStateQuarter:
		return mem.FillPlan{FetchAddr: key, FetchBytes: fragemu.CompQuarter.Bytes()}
	default:
		return mem.FillPlan{FetchAddr: key, FetchBytes: SurfaceBlockBytes}
	}
}

// Synthesize implements mem.Hooks: fast-cleared lines materialize on
// chip in a few cycles without memory traffic.
func (h *zHooks) Synthesize(key uint32, line []byte) {
	for i := 0; i < len(line); i += 4 {
		binary.LittleEndian.PutUint32(line[i:], h.z.clearValue)
	}
}

// Decode implements mem.Hooks: decompress per the block state.
func (h *zHooks) Decode(key uint32, raw, line []byte) {
	var level fragemu.CompLevel
	switch h.z.states[h.blockIdx(key)] {
	case zStateHalf:
		level = fragemu.CompHalf
	case zStateQuarter:
		level = fragemu.CompQuarter
	default:
		copy(line, raw)
		return
	}
	var vals [fragemu.ZBlockElems]uint32
	fragemu.DecompressZBlock(level, raw, &vals)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(line[i*4:], v)
	}
}

// Encode implements mem.Hooks: compress the line, update the block
// state and refresh the Hierarchical Z reference.
func (h *zHooks) Encode(key uint32, line []byte) (uint32, []byte) {
	var vals [fragemu.ZBlockElems]uint32
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(line[i*4:])
	}
	idx := h.blockIdx(key)
	if !h.z.cfg.ZCompression {
		maxD := uint32(0)
		for _, v := range vals {
			if d, _ := fragemu.UnpackDS(v); d > maxD {
				maxD = d
			}
		}
		if h.z.hz != nil {
			h.z.hz.Update(key, maxD)
		}
		h.z.states[idx] = zStateUncompressed
		return key, line
	}
	level, data, maxD := fragemu.CompressZBlock(&vals, h.enc)
	h.enc = data
	switch level {
	case fragemu.CompHalf:
		h.z.states[idx] = zStateHalf
	case fragemu.CompQuarter:
		h.z.states[idx] = zStateQuarter
	default:
		h.z.states[idx] = zStateUncompressed
	}
	if h.z.hz != nil {
		h.z.hz.Update(key, maxD)
	}
	return key, data
}
