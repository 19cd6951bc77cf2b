package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/rastemu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// TriangleSetup computes the triangle half-plane edge equations and
// the depth interpolation equation from the homogeneous vertex
// positions (paper §2.2, following Olano and Greer). It is also the
// entry of the fragment phase: triangles of the next batch wait here
// until the current fragment-phase batch retires, implementing the
// two-phase batch pipelining of §2.2.
type Setup struct {
	core.BoxBase
	pool   *pipePool
	triIn  *Flow
	triOut *Flow
	queue  core.FIFO[*TriWork]

	fragBatch *BatchState // batch currently owning the fragment phase

	// The head of the queue after setup, computed once: a triangle may
	// wait there many cycles for output credit.
	headOf  *TriWork
	headTri rastemu.Triangle
	headOK  bool

	statIn     core.Counter
	statCulled core.Counter
	statBusy   core.Counter
}

// NewSetup builds the box; the output flow's latency models the
// 10-cycle setup pipeline (Table 1).
func NewSetup(sim *core.Simulator, pool *pipePool, triIn, triOut *Flow) *Setup {
	s := &Setup{pool: pool, triIn: triIn, triOut: triOut}
	s.Init("TriangleSetup")
	sim.Stats.ShadowCounter(&s.statIn, "Setup.triangles")
	sim.Stats.ShadowCounter(&s.statCulled, "Setup.culled")
	sim.Stats.ShadowCounter(&s.statBusy, "Setup.busyCycles")
	sim.Register(s)
	return s
}

// Clock implements core.Box.
func (s *Setup) Clock(cycle int64) {
	for _, obj := range s.triIn.Recv(cycle) {
		s.queue.Push(obj.(*TriWork))
	}
	if s.queue.Len() == 0 {
		s.Park() // until a triangle is written to triIn
		return
	}
	// Release the fragment phase when its batch fully retires. Only a
	// queued triangle asks, so an empty queue need not poll.
	if s.fragBatch != nil && s.fragBatch.Done() {
		s.fragBatch = nil
	}
	tw := s.queue.Peek()
	if s.fragBatch == nil {
		s.fragBatch = tw.Batch
	}
	if tw.Batch != s.fragBatch {
		// The next batch waits for the fragment phase: until the batch
		// holding it retires, which wakes setup (BatchState.retired).
		s.Park()
		return
	}
	st := tw.Batch.State

	if s.headOf != tw {
		clip := [3]vmath.Vec4{}
		for i := 0; i < 3; i++ {
			clip[i] = tw.V[i][isa.AttrPos]
		}
		s.headOf = tw
		s.headTri, s.headOK = rastemu.Setup(clip, st.Viewport, st.CullFront, st.CullBack)
	}
	ok := s.headOK

	if ok && !s.triOut.CanSend(cycle, 1) {
		s.Park() // until credit folds into triOut
		return
	}
	s.headOf = nil
	s.queue.Pop()
	s.triIn.Release(1)
	s.statIn.Inc()
	s.statBusy.Inc()
	if !ok {
		tw.Batch.retireTris(1)
		s.statCulled.Inc()
		s.pool.tris.Put(tw)
		return
	}

	out := s.pool.setups.Get()
	out.DynObject = core.DynObject{ID: tw.ID, Parent: tw.Parent, Tag: "setup"}
	out.Batch = tw.Batch
	out.Tri = s.headTri
	out.holders = 1 // the FragmentGenerator, until it has traversed it
	// Copy the vertex attributes the interpolator will need: the
	// fragment program's inputs (position is handled separately).
	mask := st.InterpAttrs()
	for slot := 0; slot < isa.MaxOutputs; slot++ {
		if mask&(1<<slot) == 0 && slot != isa.AttrPos {
			continue
		}
		for v := 0; v < 3; v++ {
			out.Attr[slot][v] = tw.V[v][slot]
		}
	}
	s.pool.tris.Put(tw)
	s.triOut.Send(cycle, out)
}
