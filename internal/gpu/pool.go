package gpu

// pipePool recycles the high-churn fragment-pipeline objects — tiles,
// quads and shader-work wrappers, the bulk of the simulator's per-
// frame heap traffic. One goroutine clocks every allocation and
// release site, so the free lists need no locking.
//
// Ownership and release rules (see DESIGN.md §10):
//
//   - The FragmentGenerator allocates tiles and quads (buildTile).
//   - HierarchicalZ releases each tile once it has culled or
//     forwarded the tile's quads.
//   - A quad is released at exactly one of its four terminal sites,
//     the places that account it in Batch.QuadsRetired: HZ cull,
//     Z/stencil cull, every-lane-killed in the FragmentFIFO's route,
//     or ColorWrite retire.
//   - The FragmentFIFO allocates one ShaderWork wrapper per arriving
//     thread input and releases it after routing the completed thread.
//
// A recycled object is fully zeroed before reuse, so pooling is
// invisible to the simulation: results and statistics are
// bit-identical with the pool disabled. Chaos faults that drop or
// corrupt objects in flight simply leak them — the pool allocates
// replacements on demand. Checkpoints only happen at quiesced
// command boundaries with no objects in flight, so free lists carry
// no simulation state and are not serialized; after a restore they
// start empty and refill.
type pipePool struct {
	quads []*Quad
	tiles []*Tile
	works []*ShaderWork
}

func (p *pipePool) getQuad() *Quad {
	if n := len(p.quads); n > 0 {
		q := p.quads[n-1]
		p.quads = p.quads[:n-1]
		*q = Quad{}
		return q
	}
	return &Quad{}
}

// putQuad returns a retired quad. The caller must hold the only
// reference (quad popped from its input queue, credit released).
func (p *pipePool) putQuad(q *Quad) { p.quads = append(p.quads, q) }

func (p *pipePool) getTile() *Tile {
	if n := len(p.tiles); n > 0 {
		t := p.tiles[n-1]
		p.tiles = p.tiles[:n-1]
		qs := t.Quads[:0]
		*t = Tile{}
		t.Quads = qs // keep the slice's backing array across reuses
		return t
	}
	return &Tile{}
}

// putTile returns a processed tile. The tile's quads are owned by
// their own release sites and are not touched here.
func (p *pipePool) putTile(t *Tile) { p.tiles = append(p.tiles, t) }

func (p *pipePool) getWork() *ShaderWork {
	if n := len(p.works); n > 0 {
		w := p.works[n-1]
		p.works = p.works[:n-1]
		*w = ShaderWork{}
		return w
	}
	return &ShaderWork{}
}

// putWork returns a routed ShaderWork wrapper.
func (p *pipePool) putWork(w *ShaderWork) { p.works = append(p.works, w) }
