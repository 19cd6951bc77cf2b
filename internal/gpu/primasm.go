package gpu

import (
	"attila/internal/core"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// PrimAssembly stores incoming shaded vertices and assembles them
// into triangles for the five supported OpenGL primitive modes
// (paper §2.2): triangle lists, strips and fans, quad lists and
// strips.
type PrimAssembly struct {
	core.BoxBase
	ids  *core.IDSource
	pool *pipePool

	vtxIn  *Flow
	triOut *Flow

	queue   core.FIFO[*ShadedVertex]      // input queue (Table 1: 8 entries)
	window  [3][isa.MaxOutputs]vmath.Vec4 // primitive assembly window: its vertices' outputs
	held    int                           // vertices in the window
	count   int                           // vertices consumed for the current batch
	pending *TriWork                      // second triangle of a completed quad

	statTris core.Counter
	statBusy core.Counter
}

// NewPrimAssembly builds the box.
func NewPrimAssembly(sim *core.Simulator, pool *pipePool, vtxIn, triOut *Flow) *PrimAssembly {
	p := &PrimAssembly{ids: &sim.IDs, pool: pool, vtxIn: vtxIn, triOut: triOut}
	p.Init("PrimAssembly")
	sim.Stats.ShadowCounter(&p.statTris, "PrimAssembly.triangles")
	sim.Stats.ShadowCounter(&p.statBusy, "PrimAssembly.busyCycles")
	sim.Register(p)
	return p
}

// Clock implements core.Box.
func (p *PrimAssembly) Clock(cycle int64) {
	for _, obj := range p.vtxIn.Recv(cycle) {
		p.queue.Push(obj.(*ShadedVertex))
	}
	// A quad's fourth vertex completes two triangles; the second one
	// goes out the cycle after (one triangle per cycle, Table 1).
	if p.pending != nil {
		if !p.triOut.CanSend(cycle, 1) {
			p.Park() // until credit folds into triOut
			return
		}
		tri := p.pending
		p.pending = nil
		p.triOut.Send(cycle, tri)
		tri.Batch.TrisIn++
		p.statTris.Inc()
		p.statBusy.Inc()
		p.finishBatch(tri.Batch)
		return
	}
	if p.queue.Len() == 0 {
		p.Park() // until a vertex is written to vtxIn
		return
	}
	// One vertex consumed, at most one triangle emitted per cycle
	// (Table 1). A vertex can complete a triangle only when there is
	// room to send it; the triangle is built only then, so a stalled
	// cycle allocates nothing and draws no object ID.
	v := p.queue.Peek()
	emits := completesTriangle(v.Batch.State.Primitive, p.count)
	if emits && !p.triOut.CanSend(cycle, 1) {
		p.Park() // until credit folds into triOut
		return
	}
	p.queue.Pop()
	p.vtxIn.Release(1)
	b := v.Batch
	if emits {
		var tri *TriWork
		tri, p.pending = p.assemble(v) // from the window as it is before v
		p.triOut.Send(cycle, tri)
		b.TrisIn++
		p.statTris.Inc()
	}
	p.commit(v)
	p.pool.vertices.Put(v) // its outputs are in the window or a triangle
	p.statBusy.Inc()
	p.finishBatch(b)
}

// finishBatch marks the batch through primitive assembly once every
// vertex is consumed and no triangle is still waiting to go out.
func (p *PrimAssembly) finishBatch(b *BatchState) {
	if p.pending == nil && p.count == b.State.Count {
		b.assembled()
		p.held = 0
		p.count = 0
	}
}

// completesTriangle reports whether the vertex arriving after n others
// of a batch completes a triangle (for quads, a pair of them).
func completesTriangle(mode PrimMode, n int) bool {
	switch mode {
	case Triangles:
		return n%3 == 2
	case TriangleStrip, TriangleFan, QuadStrip:
		return n >= 2
	case Quads:
		// Both triangles are emitted only once the quad completes (an
		// incomplete trailing quad is discarded, per the OpenGL rule).
		return n%4 == 3
	}
	return false
}

// assemble builds what v, a vertex that completesTriangle, emits: the
// triangle to send now and, for quads, the second triangle held for
// the next cycle. It reads the window as it is before v is committed.
func (p *PrimAssembly) assemble(v *ShadedVertex) (tri, second *TriWork) {
	w := &p.window
	n := p.count // vertices consumed before v
	mk := func(a, b, c *[isa.MaxOutputs]vmath.Vec4) *TriWork {
		t := p.pool.tris.Get()
		t.DynObject = core.DynObject{ID: p.ids.Next(), Parent: v.ID, Tag: "tri"}
		t.Batch = v.Batch
		t.V[0], t.V[1], t.V[2] = *a, *b, *c
		return t
	}
	switch v.Batch.State.Primitive {
	case TriangleStrip:
		if n%2 == 1 {
			return mk(&w[1], &w[0], &v.Out), nil
		}
	case Quads:
		// Quad (0,1,2,3) becomes triangles (0,1,2) and (0,2,3).
		tri = mk(&w[0], &w[1], &w[2])
		return tri, mk(&w[0], &w[2], &v.Out)
	case QuadStrip:
		// Quad i has perimeter (2i, 2i+1, 2i+3, 2i+2), split along
		// the 2i+1..2i+2 diagonal so each arriving vertex from the
		// third on completes exactly one triangle: (2i, 2i+1, 2i+2),
		// then (2i+1, 2i+3, 2i+2).
		if n%2 == 1 {
			return mk(&w[1], &v.Out, &w[2]), nil
		}
	}
	return mk(&w[0], &w[1], &v.Out), nil
}

// commit updates the assembly window after consuming v.
func (p *PrimAssembly) commit(v *ShadedVertex) {
	n := p.count
	switch v.Batch.State.Primitive {
	case Triangles:
		if n%3 == 2 {
			p.held = 0
		} else {
			p.keep(v)
		}
	case TriangleStrip:
		if n < 2 {
			p.keep(v)
		} else {
			p.window[0], p.window[1] = p.window[1], v.Out
		}
	case TriangleFan:
		if n < 2 {
			p.keep(v)
		} else {
			p.window[1] = v.Out // [0, n]
		}
	case Quads:
		if n%4 == 3 {
			p.held = 0
		} else {
			p.keep(v)
		}
	case QuadStrip:
		if n < 2 || n%2 == 0 {
			p.keep(v) // [2i, 2i+1] or [2i, 2i+1, 2i+2]
		} else {
			p.window[0], p.window[1], p.held = p.window[2], v.Out, 2 // [2i+2, 2i+3]
		}
	}
	p.count = n + 1
}

// keep appends v's outputs to the window.
func (p *PrimAssembly) keep(v *ShadedVertex) {
	p.window[p.held] = v.Out
	p.held++
}
