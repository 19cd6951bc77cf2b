package gpu

// pipePool recycles the high-churn fragment-pipeline objects — tiles,
// quads, their fragment input blocks and shader-work wrappers, the
// bulk of the simulator's per-frame heap traffic. One goroutine clocks
// every allocation and release site, so the free lists need no
// locking; each pipeline has its own pool.
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
//   - The Interpolator gives a quad its QuadInputs block, and the
//     FragmentFIFO releases the block once it has routed the shaded
//     quad (to a ROP, or to its every-lane-killed retirement). Outside
//     those two points Quad.In is nil.
//   - The FragmentFIFO allocates one ShaderWork wrapper per arriving
//     thread input and releases it after routing the completed thread.
//
// A recycled object is fully zeroed before reuse (a tile keeps its
// Quads backing array), so pooling is invisible to the simulation:
// results and statistics are bit-identical with the pool disabled.
// Chaos faults that drop or corrupt objects in flight simply leak
// them — the pool makes replacements on demand. Checkpoints only
// happen at quiesced command boundaries with no objects in flight, so
// free lists carry no simulation state and are not serialized; after
// a restore they start empty and refill.
type pipePool struct {
	quads  freeList[Quad]
	tiles  freeList[Tile]
	works  freeList[ShaderWork]
	inputs freeList[QuadInputs]
}

// poolSlab is how many objects an empty free list makes at once.
const poolSlab = 64

// freeList recycles one kind of object. An empty list makes a slab of
// poolSlab objects in one allocation and hands out pointers into it;
// made counts every object it has made, so at drain a list whose
// objects all came back holds made of them.
type freeList[T any] struct {
	free []*T
	slab []T // the rest of the last slab, not yet handed out
	made int
}

// get returns a zeroed object.
func (l *freeList[T]) get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		reset(x)
		return x
	}
	if len(l.slab) == 0 {
		l.slab = make([]T, poolSlab)
		l.made += poolSlab
	}
	x := &l.slab[0]
	l.slab = l.slab[1:]
	return x
}

// put returns an object. The caller must hold the only reference: a
// quad popped from its input queue with its credit released, a tile
// whose quads were all culled or forwarded (they are released at their
// own sites), a wrapper or input block whose work was routed.
func (l *freeList[T]) put(x *T) { l.free = append(l.free, x) }

// reset zeroes a recycled object; a tile keeps its Quads backing array
// across reuses.
func reset[T any](x *T) {
	if t, ok := any(x).(*Tile); ok {
		*t = Tile{Quads: t.Quads[:0]}
		return
	}
	var zero T
	*x = zero
}
