package gpu

import (
	"math/bits"

	"attila/internal/core"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// Interpolator computes the fragment attributes from the triangle
// vertex attributes using the perspective-corrected linear
// interpolation of the OpenGL specification (paper §2.2). Latency
// grows with the number of active attributes (2 to 8 cycles in
// Table 1), modelled through the output signal's variable latency.
type Interpolator struct {
	core.BoxBase
	cfg     *Config
	pool    *pipePool
	quadIns []*Flow // early path: one per ROPz; late path: from HZ
	quadOut *Flow   // to FragmentFIFO for shading
	queue   core.FIFO[*Quad]
	rr      int

	statQuads core.Counter
	statBusy  core.Counter
}

// NewInterpolator builds the box.
func NewInterpolator(sim *core.Simulator, cfg *Config, pool *pipePool, quadIns []*Flow, quadOut *Flow) *Interpolator {
	ip := &Interpolator{cfg: cfg, pool: pool, quadIns: quadIns, quadOut: quadOut}
	ip.Init("Interpolator")
	sim.Stats.ShadowCounter(&ip.statQuads, "Interpolator.quads")
	sim.Stats.ShadowCounter(&ip.statBusy, "Interpolator.busyCycles")
	sim.Register(ip)
	return ip
}

// Clock implements core.Box.
func (ip *Interpolator) Clock(cycle int64) {
	for _, in := range ip.quadIns {
		for _, obj := range in.Recv(cycle) {
			ip.queue.Push(obj.(*Quad))
			in.Release(1)
		}
	}
	if ip.queue.Len() == 0 {
		ip.Park() // until a quad is written to one of quadIns
		return
	}
	worked := false
	for n := 0; n < ip.cfg.InterpQuadsPerCycle && ip.queue.Len() > 0; n++ {
		if !ip.quadOut.CanSend(cycle, 1) {
			break
		}
		q := ip.queue.Pop()
		lat := ip.interpolate(q)
		ip.quadOut.SendLat(cycle, q, lat)
		ip.statQuads.Inc()
		worked = true
	}
	// Busy only when at least one quad was interpolated; a cycle
	// blocked on a full FragmentFIFO is a stall, not work.
	if worked {
		ip.statBusy.Inc()
	} else {
		ip.Park() // no credit for the head quad: until some folds into quadOut
	}
}

// interpolate gives the quad a block of fragment inputs, fills it and
// returns the modelled latency. All four lanes are interpolated,
// including dead ones, because texture derivatives need complete quads.
func (ip *Interpolator) interpolate(q *Quad) int {
	mask := q.Batch.State.InterpAttrs()
	tri := &q.Tri.Tri
	q.In = ip.pool.inputs.Get()
	for l := 0; l < 4; l++ {
		px, py := q.X+l%2, q.Y+l/2
		e := tri.EvalEdges(px, py)
		for slot := 0; slot < isa.MaxInputs; slot++ {
			if mask&(1<<slot) == 0 {
				continue
			}
			if slot == isa.AttrPos {
				continue // window position computed below
			}
			q.In[l][slot] = tri.Interpolate(e, &q.Tri.Attr[slot])
		}
		// Fragment input slot 0 carries the window position
		// (x, y, z, 1/w), whether or not the program reads it.
		invW := (e[0]*tri.InvW[0] + e[1]*tri.InvW[1] + e[2]*tri.InvW[2]) / tri.Area
		q.In[l][isa.AttrPos] = vmath.Vec4{
			float32(px) + 0.5,
			float32(py) + 0.5,
			float32(q.Depth[l]) / float32(1<<24-1),
			invW,
		}
	}
	attrs := bits.OnesCount32(mask)
	lat := ip.cfg.InterpBaseLat + ip.cfg.InterpPerAttrLat*attrs
	max := ip.cfg.InterpBaseLat + ip.cfg.InterpPerAttrLat*isa.MaxInputs
	if lat > max {
		lat = max
	}
	if lat < 1 {
		lat = 1
	}
	return lat
}
