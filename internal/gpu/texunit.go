package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/shaderemu"
	"attila/internal/emu/texemu"
	"attila/internal/mem"
)

// TexCrossbar routes texture requests from shader units to texture
// units (round-robin — the paper notes its distribution was not
// specially optimized, which is what spreads overlapping quads over
// TUs and drives the Figure 8 hit-rate effect) and routes the
// filtered results back to the requesting shader.
type TexCrossbar struct {
	core.BoxBase
	fromShader []*Flow // one per shader
	toTU       []*Flow
	fromTU     []*Flow
	toShader   []*Flow
	rrTU       int
	queue      core.FIFO[*TexReqMsg]
	replies    core.FIFO[*TexRepMsg]
}

// NewTexCrossbar builds the box.
func NewTexCrossbar(sim *core.Simulator, fromShader, toTU, fromTU, toShader []*Flow) *TexCrossbar {
	x := &TexCrossbar{fromShader: fromShader, toTU: toTU, fromTU: fromTU, toShader: toShader}
	x.Init("TexCrossbar")
	sim.Register(x)
	return x
}

// Clock implements core.Box.
func (x *TexCrossbar) Clock(cycle int64) {
	for _, in := range x.fromShader {
		if in == nil {
			continue
		}
		for _, obj := range in.Recv(cycle) {
			x.queue.Push(obj.(*TexReqMsg))
			in.Release(1)
		}
	}
	for _, in := range x.fromTU {
		for _, obj := range in.Recv(cycle) {
			x.replies.Push(obj.(*TexRepMsg))
			in.Release(1)
		}
	}
	// Distribute requests round-robin over TUs.
	for x.queue.Len() > 0 {
		tu := x.rrTU % len(x.toTU)
		if !x.toTU[tu].CanSend(cycle, 1) {
			break
		}
		x.toTU[tu].Send(cycle, x.queue.Pop())
		x.rrTU++
	}
	// Return replies to their shaders.
	for x.replies.Len() > 0 {
		rep := x.replies.Peek()
		out := x.toShader[rep.Shader]
		if !out.CanSend(cycle, 1) {
			break
		}
		out.Send(cycle, x.replies.Pop())
	}
}

// texWork is one in-flight quad sample on a texture unit. Each unit
// owns a single instance that is reset per request, keeping the plan
// and texel-value backing arrays across requests.
type texWork struct {
	msg    *TexReqMsg
	plans  [shaderLanes]texemu.SamplePlan
	vals   [shaderLanes][]texemu.RGBA // fetched texels per lane
	lane   int                        // next texel cursor
	texel  int
	looked bool // current texel's cache access already counted
}

// TextureUnit processes texture requests for whole fragment quads
// (paper §2.2): it computes the mipmap level of detail from the
// quad's coordinate derivatives, plans bilinear/trilinear/anisotropic
// samples, fetches texels through a small texture cache (decompressed
// on fill) and filters them. Throughput is one bilinear sample per
// cycle, one trilinear every two cycles.
type TextureUnit struct {
	core.BoxBase
	cfg   *Config
	idx   int
	cache *mem.Cache
	hooks *texHooks

	reqIn  *Flow
	repOut *Flow

	queue   core.FIFO[*TexReqMsg]
	current *texWork
	work    texWork // the single in-flight request's reusable scratch
	// freeReps holds recycled reply messages: a consumed TexRepMsg
	// rides back from its shader on the next TexReqMsg's spent field
	// (any unit may receive it — the free lists are per-box and the
	// handoff is barrier-ordered through the signals).
	freeReps []*TexRepMsg
	// quiesced is the barrier-published snapshot of the idle
	// condition, read by the command processor, which may be clocked
	// on a different worker shard.
	quiesced bool

	statReqs     core.Counter
	statTexels   core.Counter
	statBilinear core.Counter
	statBusy     core.Counter
	statStall    core.Counter
}

// texHooks decode compressed texture tiles into the cache on fill
// (the cache stores decoded RGBA8 texels; compressed formats fetch
// fewer bytes from memory).
type texHooks struct {
	fmtOf map[uint32]texemu.Format
}

// FillPlan implements mem.Hooks.
func (h *texHooks) FillPlan(key uint32) mem.FillPlan {
	f := h.fmtOf[key]
	return mem.FillPlan{FetchAddr: key, FetchBytes: f.TileBytes()}
}

// Synthesize implements mem.Hooks.
func (h *texHooks) Synthesize(key uint32, line []byte) {
	panic("gpu: texture lines are never synthesized")
}

// Decode implements mem.Hooks.
func (h *texHooks) Decode(key uint32, raw, line []byte) {
	var tile [texemu.TileTexels * texemu.TileTexels]texemu.RGBA
	texemu.DecodeTile(h.fmtOf[key], raw, &tile)
	for i, c := range tile {
		copy(line[i*4:], c[:])
	}
}

// Encode implements mem.Hooks (texture caches are read only).
func (h *texHooks) Encode(key uint32, line []byte) (uint32, []byte) {
	panic("gpu: texture cache lines are never written back")
}

// NewTextureUnit builds texture unit idx.
func NewTextureUnit(sim *core.Simulator, cfg *Config, idx int, reqIn, repOut *Flow) *TextureUnit {
	t := &TextureUnit{cfg: cfg, idx: idx, reqIn: reqIn, repOut: repOut, quiesced: true}
	t.Init(nameIdx("TextureUnit", idx))
	// The quiesce flag is published per cycle and read by the command
	// processor across the shard boundary: a latency-1 dependency
	// outside the signal model, so it anchors locally and pins the
	// skew batch to 1 between this unit and the CP's shard.
	sim.OnLocalCycle(t.publishQuiesce, t.BoxName())
	sim.ConstrainSkew(t.BoxName(), "CommandProcessor", 1)
	t.hooks = &texHooks{fmtOf: make(map[uint32]texemu.Format)}
	cc := mem.CacheConfig{
		Name: nameIdx("TexCache", idx), Sets: cfg.TexCacheSets, Assoc: cfg.TexCacheAssoc,
		LineBytes: texemu.TileTexels * texemu.TileTexels * 4, MissQ: 8, PortLimit: 8,
	}
	t.cache = mem.NewCache(sim, cc, t.hooks)
	sim.Stats.ShadowCounter(&t.statReqs, t.BoxName()+".requests")
	sim.Stats.ShadowCounter(&t.statTexels, t.BoxName()+".texels")
	sim.Stats.ShadowCounter(&t.statBilinear, t.BoxName()+".bilinearSamples")
	sim.Stats.ShadowCounter(&t.statBusy, t.BoxName()+".busyCycles")
	sim.Stats.ShadowCounter(&t.statStall, t.BoxName()+".missStallCycles")
	sim.Register(t)
	return t
}

// Cache exposes the texture cache for statistics (Figure 8).
func (t *TextureUnit) Cache() *mem.Cache { return t.cache }

// Quiesce reports whether the unit had no request in progress and no
// cache traffic in flight as of the last cycle barrier (render-target
// switches invalidate the cache at such a point). The snapshot is
// published at the barrier so the command processor may poll it from
// another worker shard; a true snapshot stays true while the pipeline
// is drained, which is the only state in which it is consulted.
func (t *TextureUnit) Quiesce() bool { return t.quiesced }

// publishQuiesce snapshots the live idle condition at the cycle
// barrier (core.EndCycleFunc).
func (t *TextureUnit) publishQuiesce(cycle int64) {
	t.quiesced = t.current == nil && t.queue.Len() == 0 && t.cache.Quiesce()
}

// Clock implements core.Box.
func (t *TextureUnit) Clock(cycle int64) {
	t.cache.Clock(cycle)
	for _, obj := range t.reqIn.Recv(cycle) {
		msg := obj.(*TexReqMsg)
		if sp := msg.spent; sp != nil {
			msg.spent = nil
			t.freeReps = append(t.freeReps, sp)
		}
		t.queue.Push(msg)
	}
	if t.current == nil {
		if t.queue.Len() == 0 {
			return
		}
		t.current = t.startWork(t.queue.Pop())
		t.reqIn.Release(1)
		t.statReqs.Inc()
	}
	t.statBusy.Inc()

	w := t.current
	// Fetch up to TexelsPerCycle texels through the cache ports (4
	// per cycle = one bilinear sample, matching Table 2's texture
	// cache port configuration).
	fetched := 0
	for fetched < t.cfg.TexelsPerCycle {
		ref, ok := w.peekTexel()
		if !ok {
			break
		}
		tex := w.msg.Texture
		key, texelIdx := tex.TileAddr(ref.Face, ref.Level, ref.Slice, ref.X, ref.Y)
		if !t.cache.Probe(key) {
			t.hooks.fmtOf[key] = tex.Format
			if !w.looked {
				t.cache.Lookup(cycle, key) // count the miss once
				w.looked = true
			}
			t.cache.RequestFill(cycle, key)
			t.statStall.Inc()
			return
		}
		if !w.looked {
			t.cache.Lookup(cycle, key) // count the hit
		}
		var buf [4]byte
		t.cache.Read(key, texelIdx*4, buf[:])
		w.vals[w.lane] = append(w.vals[w.lane], texemu.RGBA(buf))
		w.advanceTexel()
		fetched++
		t.statTexels.Inc()
	}

	if !w.done() {
		return
	}
	// All texels present: filter and reply (fixed filter latency).
	if !t.repOut.CanSend(cycle, 1) {
		return
	}
	rep := t.getRep()
	rep.DynObject = core.DynObject{ID: w.msg.ID, Parent: w.msg.Parent, Tag: "texrep"}
	rep.Shader, rep.Slot = w.msg.Shader, w.msg.Slot
	for l := 0; l < shaderLanes; l++ {
		i := 0
		rep.Result[l] = texemu.FilterPlan(w.plans[l], func(texemu.TexelRef) texemu.RGBA {
			v := w.vals[l][i]
			i++
			return v
		})
	}
	// The consumed request rides the reply back to its issuing shader.
	rep.spent = w.msg
	w.msg = nil
	lat := t.cfg.TexFilterLat
	if lat < 1 {
		lat = 1
	}
	t.repOut.SendLat(cycle, rep, lat)
	t.current = nil
}

// getRep pops a recycled reply message (fully zeroed) or allocates one.
func (t *TextureUnit) getRep() *TexRepMsg {
	if n := len(t.freeReps); n > 0 {
		r := t.freeReps[n-1]
		t.freeReps = t.freeReps[:n-1]
		*r = TexRepMsg{}
		return r
	}
	return &TexRepMsg{}
}

// startWork computes the LOD and sample plans for a quad request into
// the unit's reusable scratch.
func (t *TextureUnit) startWork(msg *TexReqMsg) *texWork {
	w := &t.work
	w.msg = msg
	w.lane, w.texel, w.looked = 0, 0, false
	tex := msg.Texture
	mode := texemu.ModeNormal
	lodArg := float32(0)
	switch msg.Req.Mode {
	case shaderemu.TexModeBias:
		mode = texemu.ModeBias
		lodArg = msg.Req.Coord[0][3]
	case shaderemu.TexModeProj:
		mode = texemu.ModeProj
	case shaderemu.TexModeLod:
		mode = texemu.ModeLod
		lodArg = msg.Req.Coord[0][3]
	}
	info := tex.QuadLOD(msg.Req.Coord, mode, lodArg)
	bilinear := 0
	for l := 0; l < shaderLanes; l++ {
		c := texemu.PrepareCoord(msg.Req.Coord[l], mode)
		tex.PlanInto(&w.plans[l], c, info)
		bilinear += w.plans[l].BilinearSamples
		w.vals[l] = w.vals[l][:0]
	}
	t.statBilinear.Add(float64(bilinear))
	return w
}

func (w *texWork) peekTexel() (texemu.TexelRef, bool) {
	for w.lane < shaderLanes {
		if w.texel < len(w.plans[w.lane].Texels) {
			return w.plans[w.lane].Texels[w.texel], true
		}
		w.lane++
		w.texel = 0
	}
	return texemu.TexelRef{}, false
}

func (w *texWork) advanceTexel() {
	w.texel++
	w.looked = false
}

func (w *texWork) done() bool {
	_, more := w.peekTexel()
	return !more
}
