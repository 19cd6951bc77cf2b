package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/shaderemu"
	"attila/internal/emu/texemu"
	"attila/internal/mem"
	"attila/internal/vmath"
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
	sent := false
	for x.queue.Len() > 0 {
		tu := x.rrTU % len(x.toTU)
		if !x.toTU[tu].CanSend(cycle, 1) {
			break
		}
		x.toTU[tu].Send(cycle, x.queue.Pop())
		x.rrTU++
		sent = true
	}
	// Return replies to their shaders.
	for x.replies.Len() > 0 {
		rep := x.replies.Peek()
		out := x.toShader[rep.Shader]
		if !out.CanSend(cycle, 1) {
			break
		}
		out.Send(cycle, x.replies.Pop())
		sent = true
	}
	// Both queues empty, or their heads without credit: until a message
	// is written to an input or credit folds into an output flow.
	if !sent {
		x.Park()
	}
}

// texWork is one in-flight quad sample on a texture unit. Each unit
// owns a single instance that is reset per request, keeping the plans'
// backing arrays across requests.
type texWork struct {
	msg   *TexReqMsg
	plans [shaderLanes]texemu.SamplePlan
	acc   [shaderLanes]vmath.Vec4 // weighted sum of the texels read so far
	lane  int                     // next texel cursor
	texel int
	// ahead counts the texels read when the request started whose
	// fetch cycles are still to come; the cursor is past them.
	ahead  int
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
	// replies recycles reply messages: a consumed TexRepMsg rides back
	// from its shader on the next TexReqMsg's spent field (any unit may
	// receive it — the free lists are per-box). A slab is a shader's
	// threads' worth.
	replies core.FreeList[TexRepMsg]
	// quiesced is the end-of-cycle snapshot of the idle condition,
	// read by the command processor from the next cycle on, as if it
	// came down a wire of latency 1. Nothing but the unit's own Clock
	// changes the condition, so Clock marks quiescePub when it ends with
	// the condition other than published: a few times a frame.
	quiesced   bool
	quiescePub *core.Publication

	statReqs     core.Progress
	statTexels   core.Progress
	statBilinear core.Counter
	statBusy     core.Counter
	statStall    core.Counter
}

// texHooks decode compressed texture tiles into the cache on fill
// (the cache stores decoded RGBA8 texels; compressed formats fetch
// fewer bytes from memory).
type texHooks struct {
	// fmtOf is the format of each tile with a fill in flight: written at
	// a texel's first miss, dropped once the tile is decoded.
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
	delete(h.fmtOf, key)
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
	t.replies.Slab = cfg.ThreadsPerShader
	t.Init(nameIdx("TextureUnit", idx))
	// The quiesce flag is read by the command processor outside the
	// signal model; a CP parked waiting for it is woken by the fold.
	t.quiescePub = sim.Publish("CommandProcessor", t.publishQuiesce)
	t.hooks = &texHooks{fmtOf: make(map[uint32]texemu.Format)}
	cc := mem.CacheConfig{
		Name: nameIdx("TexCache", idx), Owner: t.BoxName(), Sets: cfg.TexCacheSets, Assoc: cfg.TexCacheAssoc,
		LineBytes: texemu.TileTexels * texemu.TileTexels * 4, MissQ: 8, PortLimit: 8,
	}
	t.cache = mem.NewCache(sim, cc, t.hooks)
	sim.Stats.ShadowProgress(&t.statReqs, t.BoxName()+".requests")
	sim.Stats.ShadowProgress(&t.statTexels, t.BoxName()+".texels")
	sim.Stats.ShadowCounter(&t.statBilinear, t.BoxName()+".bilinearSamples")
	sim.Stats.ShadowCounter(&t.statBusy, t.BoxName()+".busyCycles")
	sim.Stats.ShadowCounter(&t.statStall, t.BoxName()+".missStallCycles")
	sim.Register(t)
	return t
}

// Cache exposes the texture cache for statistics (Figure 8).
func (t *TextureUnit) Cache() *mem.Cache { return t.cache }

// Quiesce reports whether the unit had no request in progress and no
// cache traffic in flight as of the end of the last cycle (render-target
// switches invalidate the cache at such a point). The snapshot is
// published there, so the command processor sees it a cycle late,
// whatever order the two are clocked in; a true snapshot stays true
// while the pipeline is drained, which is the only state in which it is
// consulted.
func (t *TextureUnit) Quiesce() bool { return t.quiesced }

// idle is the live idle condition.
func (t *TextureUnit) idle() bool {
	return t.current == nil && t.queue.Len() == 0 && t.cache.Quiesce()
}

// publishQuiesce snapshots the live idle condition at the end of the
// cycle (core.EndCycleFunc).
func (t *TextureUnit) publishQuiesce(cycle int64) { t.quiesced = t.idle() }

// Clock implements core.Box.
func (t *TextureUnit) Clock(cycle int64) {
	t.clock(cycle)
	if t.idle() != t.quiesced {
		t.quiescePub.Mark()
	}
}

func (t *TextureUnit) clock(cycle int64) {
	t.cache.Clock(cycle)
	for _, obj := range t.reqIn.Recv(cycle) {
		msg := obj.(*TexReqMsg)
		if sp := msg.spent; sp != nil {
			msg.spent = nil
			t.replies.Put(sp)
		}
		t.queue.Push(msg)
	}
	if t.current == nil {
		if t.queue.Len() == 0 {
			// Until a request is written to reqIn or a reply to the
			// cache's port.
			if t.cache.Still() {
				t.Park()
			}
			return
		}
		t.current = t.startWork(cycle, t.queue.Pop())
		t.reqIn.Release(1)
		t.statReqs.Inc()
	}
	t.statBusy.Inc()

	w := t.current
	// Fetch up to TexelsPerCycle texels through the cache ports (4
	// per cycle = one bilinear sample, matching Table 2's texture
	// cache port configuration). Texels read ahead when the request
	// started are only counted, in the cycles that fetch them; the
	// ones after them are read here, each added to its lane's filtered
	// sum as it arrives. A texel in the tile of the one before it
	// reuses that line without a lookup. line must not outlive this
	// call: the next RequestFill (after which we return) or
	// cache.Clock may evict it.
	fetched := min(w.ahead, t.cfg.TexelsPerCycle)
	if fetched > 0 {
		w.ahead -= fetched
		t.statTexels.Add(float64(fetched))
		t.cache.AddHits(fetched)
	}
	var line *mem.Line
	var lineAddr uint32
	for ; fetched < t.cfg.TexelsPerCycle; fetched++ {
		ref := w.peekTexel()
		if ref == nil {
			break
		}
		if line == nil || ref.Addr != lineAddr {
			line, lineAddr = t.cache.Resident(ref.Addr), ref.Addr
		}
		if line == nil {
			if !w.looked { // count the miss once
				t.cache.Miss()
				t.hooks.fmtOf[ref.Addr] = w.msg.Texture.Format
				w.looked = true
			}
			queued := t.cache.RequestFill(cycle, ref.Addr)
			t.statStall.Inc()
			// The cycles slept through are busy, miss-stalled ones.
			parkOnMiss(&t.BoxBase, t.cache, queued, &t.statBusy, &t.statStall)
			return
		}
		if !w.looked { // a texel that missed was counted then
			t.cache.Hit(cycle, line)
		}
		filterTexel(&w.acc[w.lane], line, ref)
		w.texel++
		w.looked = false
		t.statTexels.Inc()
	}

	// All texels present: reply (fixed filter latency).
	if w.ahead > 0 || w.peekTexel() != nil || !t.repOut.CanSend(cycle, 1) {
		return
	}
	rep := t.replies.Get()
	rep.DynObject = core.DynObject{ID: w.msg.ID, Parent: w.msg.Parent, Tag: "texrep"}
	rep.Shader, rep.Slot = w.msg.Shader, w.msg.Slot
	rep.Result = w.acc
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

// startWork computes the LOD and sample plans for a quad request into
// the unit's reusable scratch, then reads ahead.
func (t *TextureUnit) startWork(cycle int64, msg *TexReqMsg) *texWork {
	w := &t.work
	w.msg = msg
	w.lane, w.texel, w.ahead, w.looked = 0, 0, 0, false
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
	t.statBilinear.Add(float64(tex.PlanQuad(&w.plans, msg.Req.Coord, mode, info)))
	w.acc = [shaderLanes]vmath.Vec4{}
	if t.cache.PendingMisses() == 0 {
		t.readAhead(w, cycle)
	}
	return w
}

// readAhead reads and filters, in the request's first cycle, the texels
// of its plan up to the first whose tile is not resident, and stamps
// each one's line used in the cycle that would have fetched it last:
// TexelsPerCycle texels a cycle from start on. Clock then counts them
// in those cycles. Reading them early is exact because nothing changes
// what is resident, or reads a stamp, before that texel's cycle: the
// cache has no miss in flight to fill, only this unit's own
// RequestFill evicts a line or chooses a victim by its stamp, and the
// unit makes none before the last texel read here is counted (it makes
// one at the first texel not read here); an InvalidateAll or a
// checkpoint only meets a quiesced unit.
func (t *TextureUnit) readAhead(w *texWork, start int64) {
	per := t.cfg.TexelsPerCycle
	var line *mem.Line
	var lineAddr uint32
	for ; w.lane < shaderLanes; w.lane, w.texel = w.lane+1, 0 {
		texels := w.plans[w.lane].Texels
		for ; w.texel < len(texels); w.texel++ {
			ref := &texels[w.texel]
			if line == nil || ref.Addr != lineAddr {
				if line != nil { // a run of texels in one tile is stamped once, at its end
					t.cache.Touch(start+int64((w.ahead-1)/per), line)
				}
				if line, lineAddr = t.cache.Resident(ref.Addr), ref.Addr; line == nil {
					return
				}
			}
			filterTexel(&w.acc[w.lane], line, ref)
			w.ahead++
		}
	}
	if line != nil {
		t.cache.Touch(start+int64((w.ahead-1)/per), line)
	}
}

// filterTexel adds a texel of a resident line to its lane's sum, with
// the operations of texemu.FilterPlan: each channel's product rounded
// to float32 before the sum, so no platform fuses it.
func filterTexel(acc *vmath.Vec4, line *mem.Line, ref *texemu.TexelRef) {
	px, wgt := line.Data()[ref.Idx*4:][:4], ref.W
	acc[0] += float32(texemu.Unorm8(px[0]) * wgt)
	acc[1] += float32(texemu.Unorm8(px[1]) * wgt)
	acc[2] += float32(texemu.Unorm8(px[2]) * wgt)
	acc[3] += float32(texemu.Unorm8(px[3]) * wgt)
}

// peekTexel returns the next texel to fetch, or nil when the request
// has them all.
func (w *texWork) peekTexel() *texemu.TexelRef {
	for ; w.lane < shaderLanes; w.lane, w.texel = w.lane+1, 0 {
		if w.texel < len(w.plans[w.lane].Texels) {
			return &w.plans[w.lane].Texels[w.texel]
		}
	}
	return nil
}
