package gpu

import (
	"attila/internal/core"
	"attila/internal/obsv/trace"
)

// workKind distinguishes shader work.
type workKind uint8

const (
	workVertex workKind = iota
	workFragment
)

// ShaderWork is one thread's worth of shader input: a vertex group or
// a fragment quad, dispatched by the FragmentFIFO to a shader unit.
type ShaderWork struct {
	core.DynObject
	Batch *BatchState
	Kind  workKind
	Vtx   *VtxGroup
	Frag  *Quad
	Regs  int  // physical registers reserved for the thread
	VPool bool // reserved from the vertex register pool

	// span traces a sampled work item's lifecycle (arrival → window
	// admission → dispatch → shader completion → downstream routing).
	// All hops are stamped by the FragmentFIFO, which owns the item at
	// every stamping point.
	span *trace.Span
}

// FragmentFIFO is the crossbar and scheduler between the fixed
// pipeline and the programmable shader pool (paper §3: it receives
// vertices and fragments from producing boxes, feeds shader units,
// and returns outputs to the consuming boxes; it also implements the
// early/late Z datapaths). The §5 case study's global thread window
// (or in-order shader input queue) lives here.
type FragmentFIFO struct {
	core.BoxBase
	sim    *core.Simulator
	cfg    *Config
	pool   *pipePool
	layout SurfaceLayout

	vtxIn  *Flow // vertex groups from the streamer
	fragIn *Flow // interpolated quads

	vtxOut    *Flow   // shaded vertex groups back to the streamer
	fragEarly []*Flow // per ROP: shaded quads to Color Write (early Z done)
	fragLate  []*Flow // per ROP: shaded quads to Z Stencil (late Z)

	shaderIn  []*Flow // new threads to each shader
	shaderOut []*Flow // completed threads from each shader

	vtxArrived  core.FIFO[*ShaderWork] // received, flow credit still held
	fragArrived core.FIFO[*ShaderWork]
	vtxPending  core.FIFO[*ShaderWork] // admitted to the thread window
	fragPending core.FIFO[*ShaderWork]
	outbox      core.FIFO[*ShaderWork] // completed, waiting for downstream room

	windowUsed int
	fragRegs   int // fragment/unified register pool in use
	vtxRegs    int // vertex pool in use (non-unified)
	// rr is the dispatch round-robin pointer. It moves one shader per
	// cycle, busy or idle, so it is kept as an offset: the scan of cycle
	// c starts at shader (rr+c) mod n, and an idle box has no pointer to
	// advance (see startSlot).
	rr int

	// What the Clock in progress did: moved is set by a work item
	// received, admitted, dispatched, completed or routed; refused
	// counts the register reservations its dispatch scan was denied.
	moved   bool
	refused int

	// Span tracing handles, one per work kind (nil: tracing off).
	trVtx  *trace.Tracer
	trFrag *trace.Tracer

	statVtxThreads  core.Progress
	statFragThreads core.Progress
	statKilled      core.Progress
	statWindowFull  core.Counter
	statRegStall    core.Counter
	windowGauge     *core.Gauge
}

// NewFragmentFIFO builds the box.
func NewFragmentFIFO(sim *core.Simulator, cfg *Config, pool *pipePool, layout SurfaceLayout,
	vtxIn, fragIn, vtxOut *Flow, fragEarly, fragLate, shaderIn, shaderOut []*Flow) *FragmentFIFO {
	f := &FragmentFIFO{
		sim: sim, cfg: cfg, pool: pool, layout: layout,
		vtxIn: vtxIn, fragIn: fragIn, vtxOut: vtxOut,
		fragEarly: fragEarly, fragLate: fragLate,
		shaderIn: shaderIn, shaderOut: shaderOut,
	}
	f.Init("FragmentFIFO")
	sim.Stats.ShadowProgress(&f.statVtxThreads, "FFIFO.vertexThreads")
	sim.Stats.ShadowProgress(&f.statFragThreads, "FFIFO.fragmentThreads")
	sim.Stats.ShadowProgress(&f.statKilled, "FFIFO.killedQuads")
	sim.Stats.ShadowCounter(&f.statWindowFull, "FFIFO.windowFullCycles")
	sim.Stats.ShadowCounter(&f.statRegStall, "FFIFO.regStallCycles")
	f.windowGauge = sim.Stats.Gauge("FFIFO.windowOccupancy")
	sim.Register(f)
	return f
}

// SetTracers installs the per-kind span tracing handles (nil
// disables). Call before Run.
func (f *FragmentFIFO) SetTracers(vtx, frag *trace.Tracer) {
	f.trVtx, f.trFrag = vtx, frag
}

// Clock implements core.Box.
func (f *FragmentFIFO) Clock(cycle int64) {
	f.moved, f.refused = false, 0
	f.collectCompletions(cycle)
	f.drainOutbox(cycle)
	f.acceptInputs(cycle)
	f.dispatch(cycle)
	f.windowGauge.Set(float64(f.windowUsed))
	// Nothing moved: every queue head waits for credit, registers or a
	// slot of the window, and the next Clock finds them waiting still,
	// counts the full window again and is refused the same reservations
	// (with no dispatch the scan visits every shader, whichever it starts
	// at) — until a wire carries something in or credit folds into an
	// output flow. An empty box counts nothing.
	if !f.moved {
		if f.windowUsed >= f.cfg.WindowThreads {
			f.ParkCounting(&f.statWindowFull, 1)
		}
		f.ParkCounting(&f.statRegStall, f.refused)
	}
}

func (f *FragmentFIFO) acceptInputs(cycle int64) {
	// Signals must be drained every cycle; arrivals hold their flow
	// credit until admitted into the thread window.
	for _, obj := range f.vtxIn.Recv(cycle) {
		g := obj.(*VtxGroup)
		w := f.pool.works.Get()
		w.DynObject = core.DynObject{ID: g.ID, Parent: g.Parent, Tag: "vwork"}
		w.Batch, w.Kind, w.Vtx = g.Batch, workVertex, g
		if f.trVtx != nil {
			w.span = f.trVtx.Start(trace.KindVertex, cycle, 0)
		}
		f.vtxArrived.Push(w)
		f.moved = true
	}
	for _, obj := range f.fragIn.Recv(cycle) {
		q := obj.(*Quad)
		w := f.pool.works.Get()
		w.DynObject = core.DynObject{ID: q.ID, Parent: q.Parent, Tag: "fwork"}
		w.Batch, w.Kind, w.Frag = q.Batch, workFragment, q
		if f.trFrag != nil {
			w.span = f.trFrag.Start(trace.KindFrag, cycle, 0)
		}
		f.fragArrived.Push(w)
		f.moved = true
	}
	// Admit into the window, vertices first (geometry starvation
	// stalls the whole pipeline).
	for f.windowUsed < f.cfg.WindowThreads && f.vtxArrived.Len() > 0 {
		w := f.vtxArrived.Pop()
		if w.span != nil {
			w.span.Enqueue = cycle
		}
		f.vtxPending.Push(w)
		f.vtxIn.Release(1)
		f.windowUsed++
		f.moved = true
	}
	for f.windowUsed < f.cfg.WindowThreads && f.fragArrived.Len() > 0 {
		w := f.fragArrived.Pop()
		if w.span != nil {
			w.span.Enqueue = cycle
		}
		f.fragPending.Push(w)
		f.fragIn.Release(1)
		f.windowUsed++
		f.moved = true
	}
	if f.windowUsed >= f.cfg.WindowThreads {
		f.statWindowFull.Inc()
	}
}

// eligible reports whether shader s may run the given work kind.
func (f *FragmentFIFO) eligible(s int, kind workKind) bool {
	if f.cfg.UnifiedShaders {
		return true
	}
	if kind == workVertex {
		return s < f.cfg.NumVertexShaders
	}
	return s >= f.cfg.NumVertexShaders
}

// startSlot returns the shader the dispatch scan of the given cycle
// starts at.
func (f *FragmentFIFO) startSlot(cycle int64) int {
	return int((int64(f.rr) + cycle) % int64(len(f.shaderIn)))
}

func (f *FragmentFIFO) dispatch(cycle int64) {
	if f.vtxPending.Len()+f.fragPending.Len() == 0 {
		return
	}
	n := len(f.shaderIn)
	s := f.startSlot(cycle)
	// One visit per shader; a visit with nothing pending does nothing.
	for k := 0; k < n && f.vtxPending.Len()+f.fragPending.Len() > 0; k, s = k+1, s+1 {
		if s == n {
			s = 0
		}
		if !f.shaderIn[s].CanSend(cycle, 1) {
			continue
		}
		var w *ShaderWork
		switch {
		case f.vtxPending.Len() > 0 && f.eligible(s, workVertex):
			w = f.vtxPending.Peek()
			if !f.reserveRegs(w) {
				w = nil
			} else {
				f.vtxPending.Pop()
			}
		case f.fragPending.Len() > 0 && f.eligible(s, workFragment):
			w = f.fragPending.Peek()
			if !f.reserveRegs(w) {
				w = nil
			} else {
				f.fragPending.Pop()
			}
		}
		if w == nil {
			continue
		}
		if w.span != nil {
			w.span.Sched = cycle
		}
		f.shaderIn[s].Send(cycle, w)
		f.moved = true
		if w.Kind == workVertex {
			f.statVtxThreads.Inc()
		} else {
			f.statFragThreads.Inc()
		}
	}
}

// reserveRegs applies the §2.3 physical-register admission rule: a
// thread needs 4 registers per temporary the program uses.
func (f *FragmentFIFO) reserveRegs(w *ShaderWork) bool {
	prog := w.Batch.State.FragmentProg
	if w.Kind == workVertex {
		prog = w.Batch.State.VertexProg
	}
	need := shaderLanes * prog.TempsUsed()
	usesVPool := !f.cfg.UnifiedShaders && w.Kind == workVertex
	if usesVPool {
		if f.vtxRegs+need > f.cfg.PhysRegsVertex {
			f.statRegStall.Inc()
			f.refused++
			return false
		}
		f.vtxRegs += need
	} else {
		if f.fragRegs+need > f.cfg.PhysRegsFragment {
			f.statRegStall.Inc()
			f.refused++
			return false
		}
		f.fragRegs += need
	}
	w.Regs = need
	w.VPool = usesVPool
	return true
}

func (f *FragmentFIFO) collectCompletions(cycle int64) {
	// The window holds the threads pending, in a shader and in the
	// outbox; with none in a shader no output wire carries anything.
	if f.windowUsed == f.vtxPending.Len()+f.fragPending.Len()+f.outbox.Len() {
		return
	}
	for s := range f.shaderOut {
		for _, obj := range f.shaderOut[s].Recv(cycle) {
			w := obj.(*ShaderWork)
			f.shaderOut[s].Release(1)
			if w.span != nil {
				w.span.Complete = cycle
			}
			if w.VPool {
				f.vtxRegs -= w.Regs
			} else {
				f.fragRegs -= w.Regs
			}
			f.outbox.Push(w)
			f.moved = true
		}
	}
}

func (f *FragmentFIFO) drainOutbox(cycle int64) {
	for f.outbox.Len() > 0 {
		w := f.outbox.Peek()
		if !f.route(cycle, w) {
			return
		}
		f.outbox.Pop()
		f.windowUsed--
		f.moved = true
		if sp := w.span; sp != nil {
			w.span = nil
			sp.Finish(cycle)
		}
		f.pool.works.Put(w)
	}
}

// route sends completed work to its consumer; false when the
// destination has no room this cycle.
func (f *FragmentFIFO) route(cycle int64, w *ShaderWork) bool {
	if w.Kind == workVertex {
		if !f.vtxOut.CanSend(cycle, 1) {
			return false
		}
		f.vtxOut.Send(cycle, w.Vtx)
		return true
	}
	q := w.Frag
	var out *Flow // nil: every lane killed by KIL
	if q.Alive() {
		rop := f.layout.BlockIndex(q.X, q.Y) % len(f.fragEarly)
		out = f.fragLate[rop]
		if q.Batch.EarlyZ {
			out = f.fragEarly[rop]
		}
		if !out.CanSend(cycle, 1) {
			return false
		}
	}
	// Count only on successful routing: route is retried every cycle
	// while the consumer is full, and each quad is shaded once. Routed
	// or retired, the shaded quad needs its inputs no more.
	q.Batch.ShadedQuads++
	f.pool.inputs.Put(q.In)
	q.In = nil
	if out == nil {
		// The quad retires here.
		q.Batch.retireQuads(1)
		q.Batch.KilledQuads++
		f.statKilled.Inc()
		f.pool.retireQuad(q)
		return true
	}
	out.Send(cycle, q)
	return true
}
