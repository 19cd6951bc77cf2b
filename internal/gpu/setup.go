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
	triIn  *Flow
	triOut *Flow
	queue  core.FIFO[*TriWork]

	fragBatch *BatchState // batch currently owning the fragment phase

	statIn     core.Counter
	statCulled core.Counter
	statBusy   core.Counter
}

// NewSetup builds the box; the output flow's latency models the
// 10-cycle setup pipeline (Table 1).
func NewSetup(sim *core.Simulator, triIn, triOut *Flow) *Setup {
	s := &Setup{triIn: triIn, triOut: triOut}
	s.Init("TriangleSetup")
	sim.Stats.ShadowCounter(&s.statIn, "Setup.triangles")
	sim.Stats.ShadowCounter(&s.statCulled, "Setup.culled")
	sim.Stats.ShadowCounter(&s.statBusy, "Setup.busyCycles")
	sim.Register(s)
	return s
}

// FragmentBatch returns the batch currently in the fragment phase
// (nil when none).
func (s *Setup) FragmentBatch() *BatchState { return s.fragBatch }

// Clock implements core.Box.
func (s *Setup) Clock(cycle int64) {
	for _, obj := range s.triIn.Recv(cycle) {
		s.queue.Push(obj.(*TriWork))
	}
	// Release the fragment phase when its batch fully retires.
	if s.fragBatch != nil && s.fragBatch.Done() {
		s.fragBatch = nil
	}
	if s.queue.Len() == 0 {
		return
	}
	tw := s.queue.Peek()
	if s.fragBatch == nil {
		s.fragBatch = tw.Batch
	}
	if tw.Batch != s.fragBatch {
		return // next batch waits for the fragment phase
	}
	st := tw.Batch.State

	clip := [3]vmath.Vec4{}
	for i := 0; i < 3; i++ {
		clip[i] = tw.V[i].Out[isa.AttrPos]
	}
	tri, ok := rastemu.Setup(clip, st.Viewport, st.CullFront, st.CullBack)

	if ok && !s.triOut.CanSend(cycle, 1) {
		return
	}
	s.queue.Pop()
	s.triIn.Release(1)
	s.statIn.Inc()
	s.statBusy.Inc()
	if !ok {
		tw.Batch.TrisRetired++
		s.statCulled.Inc()
		return
	}

	out := &SetupTri{
		DynObject: core.DynObject{ID: tw.ID, Parent: tw.Parent, Tag: "setup"},
		Batch:     tw.Batch,
		Tri:       tri,
	}
	// Copy the vertex attributes the interpolator will need: the
	// fragment program's inputs (position is handled separately).
	mask := st.InterpAttrs()
	for slot := 0; slot < isa.MaxOutputs; slot++ {
		if mask&(1<<slot) == 0 && slot != isa.AttrPos {
			continue
		}
		for v := 0; v < 3; v++ {
			out.Attr[slot][v] = tw.V[v].Out[slot]
		}
	}
	s.triOut.Send(cycle, out)
}
