package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/fragemu"
)

// HierarchicalZ tests generated fragment tiles against an on-chip
// Hierarchical Z buffer to remove non-visible tiles at a very fast
// rate (up to two 8x8 tiles per cycle, paper §2.2). The buffer holds
// one conservative maximum depth per 8x8 framebuffer block; reference
// values are refreshed when lines are evicted from the Z cache and
// compressed. Surviving tiles are split into 2x2 quads, the work unit
// of the fragment pipeline, and distributed over the ROP units by
// block interleaving.
type HierarchicalZ struct {
	core.BoxBase
	cfg     *Config
	pool    *pipePool
	layout  SurfaceLayout
	tileIn  *Flow
	earlyZ  []*Flow // per-ROP, early-Z path (HZ -> Z test)
	lateOut *Flow   // late-Z path (HZ -> interpolator)
	queue   core.FIFO[*Tile]
	maxZ    []uint32 // per block

	statTiles  core.Progress
	statCulled core.Progress
	statQuads  core.Counter
	statBusy   core.Counter
}

// NewHierarchicalZ builds the box. earlyZ carries one flow per ROP
// unit; lateOut feeds the interpolator when the batch performs Z
// after shading.
func NewHierarchicalZ(sim *core.Simulator, cfg *Config, pool *pipePool, layout SurfaceLayout,
	tileIn *Flow, earlyZ []*Flow, lateOut *Flow) *HierarchicalZ {
	h := &HierarchicalZ{
		cfg: cfg, pool: pool, layout: layout,
		tileIn: tileIn, earlyZ: earlyZ, lateOut: lateOut,
		maxZ: make([]uint32, layout.NumBlocks()),
	}
	h.Init("HierarchicalZ")
	for i := range h.maxZ {
		h.maxZ[i] = fragemu.MaxDepth
	}
	sim.Stats.ShadowProgress(&h.statTiles, "HZ.tiles")
	sim.Stats.ShadowProgress(&h.statCulled, "HZ.culledTiles")
	sim.Stats.ShadowCounter(&h.statQuads, "HZ.quadsOut")
	sim.Stats.ShadowCounter(&h.statBusy, "HZ.busyCycles")
	sim.Register(h)
	return h
}

// Update refreshes a block's reference depth from a compressed Z
// cache eviction (key is the block's memory address).
func (h *HierarchicalZ) Update(key uint32, maxDepth uint32) {
	idx := int(key-h.layout.Base) / SurfaceBlockBytes
	if idx >= 0 && idx < len(h.maxZ) {
		h.maxZ[idx] = maxDepth
	}
}

// Clear resets every block reference to the clear depth (fast Z
// clear).
func (h *HierarchicalZ) Clear(depth uint32) {
	for i := range h.maxZ {
		h.maxZ[i] = depth
	}
}

// ropFor interleaves framebuffer blocks over the ROP units.
func (h *HierarchicalZ) ropFor(x, y int) int {
	return h.layout.BlockIndex(x, y) % len(h.earlyZ)
}

// Clock implements core.Box.
func (h *HierarchicalZ) Clock(cycle int64) {
	for _, obj := range h.tileIn.Recv(cycle) {
		h.queue.Push(obj.(*Tile))
	}
	if h.queue.Len() == 0 {
		h.Park() // until a tile is written to tileIn
		return
	}
	worked := false
	for n := 0; n < h.cfg.HZTilesPerCycle && h.queue.Len() > 0; n++ {
		tile := h.queue.Peek()
		if !h.process(cycle, tile) {
			break // downstream full; retry next cycle
		}
		worked = true
		h.queue.Pop()
		h.tileIn.Release(1)
		h.statTiles.Inc()
		h.pool.tiles.Put(tile) // quads culled or forwarded; wrapper done
	}
	// A cycle spent entirely blocked on a full consumer is not busy:
	// busyCycles must reflect tiles actually tested, or utilization
	// reads 100% during downstream stalls.
	if worked {
		h.statBusy.Inc()
	} else {
		h.Park() // the head tile found no credit: until some folds into an output flow
	}
}

func (h *HierarchicalZ) process(cycle int64, tile *Tile) bool {
	b := tile.Batch
	if b.HZ {
		idx := h.layout.BlockIndex(tile.X, tile.Y)
		if idx >= 0 && idx < len(h.maxZ) && tile.MinDepth > h.maxZ[idx] {
			// The whole tile is behind everything drawn to the
			// block: cull it without touching memory.
			b.retireQuads(len(tile.Quads))
			b.HZCulledQuads += len(tile.Quads)
			h.statCulled.Inc()
			for _, q := range tile.Quads {
				h.pool.retireQuad(q)
			}
			return true
		}
	}
	// Split into quads and route. All quads of the tile go out in
	// one cycle (the 2x64 fragment bandwidth of Table 1); the flow
	// credits provide backpressure.
	if b.EarlyZ {
		rop := h.ropFor(tile.X, tile.Y)
		if !h.earlyZ[rop].CanSend(cycle, len(tile.Quads)) {
			return false
		}
		for _, q := range tile.Quads {
			h.earlyZ[rop].Send(cycle, q)
		}
	} else {
		if !h.lateOut.CanSend(cycle, len(tile.Quads)) {
			return false
		}
		for _, q := range tile.Quads {
			h.lateOut.Send(cycle, q)
		}
	}
	h.statQuads.Add(float64(len(tile.Quads)))
	return true
}
