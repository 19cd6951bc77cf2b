package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/clipemu"
	"attila/internal/isa"
)

// Clipper performs trivial rejection of triangles completely outside
// the view frustum (paper §2.2: all other triangles, including
// partially visible ones, flow free to the rasterizer).
type Clipper struct {
	core.BoxBase
	pool   *pipePool
	triIn  *Flow
	triOut *Flow
	queue  core.FIFO[*TriWork]

	// The verdict on the head of the queue, taken once: a triangle may
	// wait there many cycles for output credit.
	judged   *TriWork
	rejected bool

	statIn       core.Counter
	statRejected core.Counter
	statBusy     core.Counter
}

// NewClipper builds the box. The output flow's signal latency models
// the 6-cycle clipper pipeline (Table 1).
func NewClipper(sim *core.Simulator, pool *pipePool, triIn, triOut *Flow) *Clipper {
	c := &Clipper{pool: pool, triIn: triIn, triOut: triOut}
	c.Init("Clipper")
	sim.Stats.ShadowCounter(&c.statIn, "Clipper.triangles")
	sim.Stats.ShadowCounter(&c.statRejected, "Clipper.rejected")
	sim.Stats.ShadowCounter(&c.statBusy, "Clipper.busyCycles")
	sim.Register(c)
	return c
}

// Clock implements core.Box.
func (c *Clipper) Clock(cycle int64) {
	for _, obj := range c.triIn.Recv(cycle) {
		c.queue.Push(obj.(*TriWork))
	}
	if c.queue.Len() == 0 {
		c.Park() // until a triangle is written to triIn
		return
	}
	tri := c.queue.Peek()
	if c.judged != tri {
		c.judged = tri
		c.rejected = clipemu.TriviallyRejected(
			tri.V[0][isa.AttrPos],
			tri.V[1][isa.AttrPos],
			tri.V[2][isa.AttrPos])
	}
	if !c.rejected && !c.triOut.CanSend(cycle, 1) {
		c.Park() // until credit folds into triOut
		return
	}
	c.queue.Pop()
	c.judged = nil
	c.triIn.Release(1)
	c.statIn.Inc()
	c.statBusy.Inc()
	if c.rejected {
		tri.Batch.retireTris(1)
		c.statRejected.Inc()
		c.pool.tris.Put(tri)
		return
	}
	c.triOut.Send(cycle, tri)
}
