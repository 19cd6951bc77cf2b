package gpu

import "attila/internal/core"

// pipePool recycles the pipeline's high-churn dynamic objects: the
// geometry path's vertex groups, shaded vertices, triangles and set-up
// triangles, and the fragment path's tiles, quads, their fragment
// input blocks and shader-work wrappers — the bulk of the simulator's
// per-frame heap traffic. One goroutine clocks every allocation and
// release site, so the free lists need no locking; each pipeline has
// its own pool.
//
// Ownership and release rules (see DESIGN.md §10):
//
//   - The Streamer allocates VtxGroups and releases each one when it
//     comes back shaded, once it has copied the outputs into its
//     reorder ring and vertex cache.
//   - The Streamer allocates a ShadedVertex per committed vertex;
//     Primitive Assembly releases it once it has copied the outputs
//     into its window.
//   - Primitive Assembly allocates TriWorks, which carry their three
//     vertices' outputs. The Clipper releases the ones it rejects,
//     Triangle Setup the ones it culls or sets up.
//   - Triangle Setup allocates SetupTris. A SetupTri counts its
//     holders: the FragmentGenerator, until it has traversed the
//     triangle, and each live quad. It goes back with the last of
//     them.
//   - The FragmentGenerator allocates tiles and quads (buildTile).
//   - HierarchicalZ releases each tile once it has culled or
//     forwarded the tile's quads.
//   - A quad is released at exactly one of its four terminal sites,
//     the places that account it in Batch.QuadsRetired: HZ cull,
//     Z/stencil cull, every-lane-killed in the FragmentFIFO's route,
//     or ColorWrite retire (retireQuad).
//   - The Interpolator gives a quad its QuadInputs block, and the
//     FragmentFIFO releases the block once it has routed the shaded
//     quad (to a ROP, or to its every-lane-killed retirement). Outside
//     those two points Quad.In is nil.
//   - The FragmentFIFO allocates one ShaderWork wrapper per arriving
//     thread input and releases it after routing the completed thread.
//
// Vertex outputs are copied, never pointed to, across a release: the
// reorder ring, the vertex cache, the assembly window and a TriWork
// each hold their own copy, so no object is read after it went back.
//
// A signal trace is a reader like any other: it copies an object's
// DynObject at the Read that takes it off a wire, so an object may go
// back and be taken again in the cycle it was read and is still traced
// under the identity it had on that wire. What must hold is only the
// rule above: nothing reads an object after it went back.
//
// A recycled object is fully zeroed before reuse, so pooling is
// invisible to the simulation: results and statistics are
// bit-identical with the pool disabled.
// Chaos faults that drop or corrupt objects in flight simply leak
// them — the pool makes replacements on demand. Checkpoints only
// happen at quiesced command boundaries with no objects in flight, so
// free lists carry no simulation state and are not serialized; after
// a restore they start empty and refill.
type pipePool struct {
	groups   core.FreeList[VtxGroup]
	vertices core.FreeList[ShadedVertex]
	tris     core.FreeList[TriWork]
	setups   core.FreeList[SetupTri]
	quads    core.FreeList[Quad]
	tiles    core.FreeList[Tile]
	works    core.FreeList[ShaderWork]
	inputs   core.FreeList[QuadInputs]
}

// retireQuad releases a quad at one of its terminal sites, and with it
// the quad's hold on its SetupTri.
func (p *pipePool) retireQuad(q *Quad) {
	p.releaseTri(q.Tri)
	p.quads.Put(q)
}

// releaseTri drops one hold on a SetupTri and recycles it with the
// last.
func (p *pipePool) releaseTri(t *SetupTri) {
	if t.holders--; t.holders == 0 {
		p.setups.Put(t)
	}
}
