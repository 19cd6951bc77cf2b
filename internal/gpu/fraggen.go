package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/fragemu"
)

// FragmentGenerator traverses the triangle's projected area and
// generates 8x8 fragment tiles (paper §2.2). Two algorithms are
// implemented: the recursive rasterization of McCool [15] (default)
// and a Neon-style tile scanner [16]. Fragments outside the triangle,
// viewport or scissor window are culled at generation.
type FragmentGenerator struct {
	core.BoxBase
	cfg     *Config
	ids     *core.IDSource
	pool    *pipePool
	triIn   *Flow
	tileOut *Flow
	queue   core.FIFO[*SetupTri]

	// Traversal state for the current triangle.
	cur   *SetupTri
	stack []region // recursive descent
	scanX int      // scanline traversal
	scanY int

	statTiles core.Progress
	statQuads core.Progress
	statFrags core.Counter
	statBusy  core.Counter
}

type region struct {
	x, y, size int
}

// NewFragmentGenerator builds the box.
func NewFragmentGenerator(sim *core.Simulator, cfg *Config, pool *pipePool, triIn, tileOut *Flow) *FragmentGenerator {
	f := &FragmentGenerator{cfg: cfg, ids: &sim.IDs, pool: pool, triIn: triIn, tileOut: tileOut}
	f.Init("FragmentGenerator")
	sim.Stats.ShadowProgress(&f.statTiles, "FGen.tiles")
	sim.Stats.ShadowProgress(&f.statQuads, "FGen.quads")
	sim.Stats.ShadowCounter(&f.statFrags, "FGen.fragments")
	sim.Stats.ShadowCounter(&f.statBusy, "FGen.busyCycles")
	sim.Register(f)
	return f
}

// Clock implements core.Box.
func (f *FragmentGenerator) Clock(cycle int64) {
	for _, obj := range f.triIn.Recv(cycle) {
		f.queue.Push(obj.(*SetupTri))
	}
	if f.cur == nil {
		if f.queue.Len() == 0 {
			f.Park() // until a triangle is written to triIn
			return
		}
		f.cur = f.queue.Pop()
		f.triIn.Release(1)
		f.startTraversal()
	}
	// Process up to FGenTilesPerCycle tile candidates. Busy counts
	// cycles where traversal advanced; a cycle spent blocked on a full
	// tile output is a stall and must not inflate utilization.
	worked := false
	for n := 0; n < f.cfg.FGenTilesPerCycle && f.cur != nil; {
		if !f.tileOut.CanSend(cycle, 1) {
			break
		}
		x, y, ok := f.nextTile()
		worked = true
		if !ok {
			f.cur.Batch.retireTris(1)
			f.pool.releaseTri(f.cur)
			f.cur = nil
			break
		}
		n++
		tile := f.buildTile(x, y)
		if tile != nil {
			f.tileOut.Send(cycle, tile)
			f.statTiles.Inc()
		}
	}
	if worked {
		f.statBusy.Inc()
	} else {
		f.Park() // the first tile found no credit: until some folds into tileOut
	}
}

func (f *FragmentGenerator) startTraversal() {
	tri := &f.cur.Tri
	if f.cfg.FGenAlgorithm == FGenScanline {
		f.scanX = tri.MinX &^ (SurfaceTile - 1)
		f.scanY = tri.MinY &^ (SurfaceTile - 1)
		return
	}
	// Recursive: start from the smallest power-of-two aligned region
	// covering the bounding box.
	size := SurfaceTile
	for {
		x0 := tri.MinX &^ (size - 1)
		y0 := tri.MinY &^ (size - 1)
		if x0+size > tri.MaxX && y0+size > tri.MaxY {
			f.stack = append(f.stack[:0], region{x0, y0, size})
			return
		}
		size *= 2
	}
}

// nextTile returns the next candidate 8x8 tile, consuming traversal
// state; ok=false when the triangle is fully traversed.
func (f *FragmentGenerator) nextTile() (x, y int, ok bool) {
	tri := &f.cur.Tri
	if f.cfg.FGenAlgorithm == FGenScanline {
		for f.scanY <= tri.MaxY {
			x, y = f.scanX, f.scanY
			f.scanX += SurfaceTile
			if f.scanX > tri.MaxX {
				f.scanX = tri.MinX &^ (SurfaceTile - 1)
				f.scanY += SurfaceTile
			}
			if tri.TileIntersects(x, y, SurfaceTile) {
				return x, y, true
			}
		}
		return 0, 0, false
	}
	for len(f.stack) > 0 {
		r := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		if !tri.TileIntersects(r.x, r.y, r.size) {
			continue
		}
		if r.size == SurfaceTile {
			return r.x, r.y, true
		}
		h := r.size / 2
		f.stack = append(f.stack,
			region{r.x + h, r.y + h, h},
			region{r.x, r.y + h, h},
			region{r.x + h, r.y, h},
			region{r.x, r.y, h},
		)
	}
	return 0, 0, false
}

// buildTile evaluates coverage for the 8x8 tile and returns it with
// its live quads, or nil when nothing is covered.
func (f *FragmentGenerator) buildTile(x0, y0 int) *Tile {
	st := f.cur.Batch.State
	tri := &f.cur.Tri
	tile := f.pool.tiles.Get()
	tile.DynObject = core.DynObject{ID: f.ids.Next(), Parent: f.cur.ID, Tag: "tile"}
	tile.Batch = f.cur.Batch
	tile.X = x0
	tile.Y = y0
	tile.Quads = tile.room[:0]
	for qy := 0; qy < SurfaceTile; qy += 2 {
		for qx := 0; qx < SurfaceTile; qx += 2 {
			var q *Quad
			for l := 0; l < 4; l++ {
				px := x0 + qx + l%2
				py := y0 + qy + l/2
				if !f.covered(st, px, py) {
					continue
				}
				e := tri.EvalEdges(px, py)
				if !tri.Inside(e) {
					continue
				}
				if q == nil {
					q = f.pool.quads.Get()
					q.DynObject = core.DynObject{ID: f.ids.Next(), Parent: tile.ID, Tag: "quad"}
					q.Batch = f.cur.Batch
					q.Tri = f.cur
					f.cur.holders++
					q.X = x0 + qx
					q.Y = y0 + qy
				}
				q.Mask[l] = true
				q.Depth[l] = fragemu.DepthToFixed(tri.Depth(px, py))
				f.statFrags.Inc()
			}
			if q != nil {
				tile.Quads = append(tile.Quads, q)
			}
		}
	}
	if len(tile.Quads) == 0 {
		f.pool.tiles.Put(tile)
		return nil
	}
	minD := tri.TileMinDepth(x0, y0, SurfaceTile)
	tile.MinDepth = fragemu.DepthToFixed(minD)
	f.cur.Batch.QuadsIn += len(tile.Quads)
	f.statQuads.Add(float64(len(tile.Quads)))
	return tile
}

// covered applies the viewport and scissor rectangle tests.
func (f *FragmentGenerator) covered(st *DrawState, x, y int) bool {
	vp := st.Viewport
	if x < vp.X || y < vp.Y || x >= vp.X+vp.W || y >= vp.Y+vp.H {
		return false
	}
	if st.ScissorEnabled {
		if x < st.ScissorX || y < st.ScissorY ||
			x >= st.ScissorX+st.ScissorW || y >= st.ScissorY+st.ScissorH {
			return false
		}
	}
	return true
}
