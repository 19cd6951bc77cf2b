package gpu

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"attila/internal/core"
	"attila/internal/emu/shaderemu"
	"attila/internal/emu/texemu"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/vmath"
)

// tuRig is one texture unit with its cache, a memory controller and
// real GPU memory behind it, clocked by hand.
type tuRig struct {
	sim    *core.Simulator
	cfg    Config
	gm     *mem.GPUMemory
	mc     *mem.Controller
	tu     *TextureUnit
	clock  func(cycle int64) // the unit's Clock, or the model's
	reqIn  *Flow
	repOut *Flow
	cycle  int64
	owed   int // reply credits not yet released
}

const tuRigMem = 1 << 20

func newTURig(tb testing.TB, sets, assoc, texelsPerCycle, filterLat, repQueue int) *tuRig {
	tb.Helper()
	r := &tuRig{sim: core.NewSimulator(0), cfg: BaselineUnified(), gm: mem.NewGPUMemory(tuRigMem), cycle: 1}
	r.cfg.TexCacheSets, r.cfg.TexCacheAssoc = sets, assoc
	r.cfg.TexelsPerCycle, r.cfg.TexFilterLat = texelsPerCycle, filterLat
	r.reqIn = testFlow("t.texreq", 4, 8, 4)
	r.repOut = testFlow("t.texrep", 4, 8, repQueue)
	r.tu = NewTextureUnit(r.sim, &r.cfg, 0, r.reqIn, r.repOut)
	r.clock = r.tu.Clock
	r.mc = mem.NewController(r.sim, mem.DefaultControllerConfig(), r.gm, []string{"TexCache0"})
	if err := r.sim.Binder.Validate(); err != nil {
		tb.Fatal(err)
	}
	return r
}

// step runs one cycle and returns the replies that arrived in it. A
// reply's credit is returned on the next cycle divisible by three, so
// the unit regularly finds its reply wire without room.
func (r *tuRig) step() []*TexRepMsg {
	c := r.cycle
	r.clock(c)
	r.mc.Clock(c)
	var reps []*TexRepMsg
	for _, obj := range r.repOut.Recv(c) {
		reps = append(reps, obj.(*TexRepMsg))
		r.owed++
	}
	if c%3 == 0 {
		r.repOut.Release(r.owed)
		r.owed = 0
	}
	barrier(r.sim, c, r.reqIn, r.repOut)
	r.cycle++
	return reps
}

func (r *tuRig) idle() bool {
	return r.tu.Introspect().Quiet() && r.owed == 0 && !r.mc.Pending() && r.sim.Binder.Idle() &&
		!r.reqIn.sig.Pending() && !r.repOut.sig.Pending()
}

// tuModel is the texture unit of ab1d5eb kept as the reference: each
// texel fetched in its cycle with Probe + Lookup + Read, texel values
// collected per lane and filtered in a second pass when the last one is
// in. It drives the TextureUnit's own cache, flows and counters and
// replaces only Clock and startWork.
//
// It also sorts its requests by the prefix of texels resident when the
// request starts, with no miss in flight: none, all of them, or some
// ending inside a cycle (a count that is no multiple of the texels
// fetched per cycle).
type tuModel struct {
	*TextureUnit
	current *tuModelWork
	work    tuModelWork

	prefixNone, prefixWhole, prefixInsideCycle int
}

type tuModelWork struct {
	msg    *TexReqMsg
	plans  [shaderLanes]texemu.SamplePlan
	vals   [shaderLanes][]texemu.RGBA
	lane   int
	texel  int
	looked bool
}

func (m *tuModel) idle() bool {
	return m.current == nil && m.queue.Len() == 0 && m.cache.Quiesce()
}

func (m *tuModel) Clock(cycle int64) {
	t := m.TextureUnit
	t.cache.Clock(cycle)
	for _, obj := range t.reqIn.Recv(cycle) {
		msg := obj.(*TexReqMsg)
		if sp := msg.spent; sp != nil {
			msg.spent = nil
			t.replies.Put(sp)
		}
		t.queue.Push(msg)
	}
	if m.current == nil {
		if t.queue.Len() == 0 {
			return
		}
		m.current = m.startWork(t.queue.Pop())
		t.reqIn.Release(1)
		t.statReqs.Inc()
	}
	t.statBusy.Inc()

	w := m.current
	fetched := 0
	for fetched < t.cfg.TexelsPerCycle {
		ref, ok := w.peekTexel()
		if !ok {
			break
		}
		key, texelIdx := ref.Addr, int(ref.Idx)
		if !t.cache.Probe(key) {
			t.hooks.fmtOf[key] = w.msg.Texture.Format
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
		w.texel++
		w.looked = false
		fetched++
		t.statTexels.Inc()
	}

	if _, more := w.peekTexel(); more {
		return
	}
	if !t.repOut.CanSend(cycle, 1) {
		return
	}
	rep := t.replies.Get()
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
	rep.spent = w.msg
	w.msg = nil
	lat := t.cfg.TexFilterLat
	if lat < 1 {
		lat = 1
	}
	t.repOut.SendLat(cycle, rep, lat)
	m.current = nil
}

func (m *tuModel) startWork(msg *TexReqMsg) *tuModelWork {
	w := &m.work
	w.msg = msg
	w.lane, w.texel, w.looked = 0, 0, false
	tex := msg.Texture
	mode, lodArg := texMode(msg.Req)
	info := tex.QuadLOD(msg.Req.Coord, mode, lodArg)
	bilinear := 0
	for l := 0; l < shaderLanes; l++ {
		c := texemu.PrepareCoord(msg.Req.Coord[l], mode)
		tex.PlanInto(&w.plans[l], c, info)
		bilinear += w.plans[l].BilinearSamples
		w.vals[l] = w.vals[l][:0]
	}
	m.statBilinear.Add(float64(bilinear))
	if m.cache.PendingMisses() == 0 {
		resident, total := 0, 0
		for l := range w.plans {
			for _, ref := range w.plans[l].Texels {
				if resident == total && m.cache.Probe(ref.Addr) {
					resident++
				}
				total++
			}
		}
		switch {
		case resident == 0:
			m.prefixNone++
		case resident == total:
			m.prefixWhole++
		case resident%m.cfg.TexelsPerCycle != 0:
			m.prefixInsideCycle++
		}
	}
	return w
}

func (w *tuModelWork) peekTexel() (texemu.TexelRef, bool) {
	for w.lane < shaderLanes {
		if w.texel < len(w.plans[w.lane].Texels) {
			return w.plans[w.lane].Texels[w.texel], true
		}
		w.lane++
		w.texel = 0
	}
	return texemu.TexelRef{}, false
}

// texMode is the request-mode switch at the top of startWork.
func texMode(req *shaderemu.TexRequest) (texemu.Mode, float32) {
	switch req.Mode {
	case shaderemu.TexModeBias:
		return texemu.ModeBias, req.Coord[0][3]
	case shaderemu.TexModeProj:
		return texemu.ModeProj, 0
	case shaderemu.TexModeLod:
		return texemu.ModeLod, req.Coord[0][3]
	}
	return texemu.ModeNormal, 0
}

// randomTextures lays a set of textures out in GPU memory from base
// up: every target, NPOT sizes, full mip chains down to 1x1, every wrap
// and filter mode, 1x to 8x anisotropy, raw and compressed formats.
// Any bytes decode, so the texel data is whatever memory holds. The
// first texture is a single tile.
func randomTextures(rng *rand.Rand, n int) []*texemu.Texture {
	targets := []isa.TexTarget{isa.Tex2D, isa.Tex2D, isa.Tex2D, isa.TexCube, isa.Tex3D, isa.Tex1D}
	formats := []texemu.Format{texemu.FmtRGBA8, texemu.FmtDXT1, texemu.FmtDXT3}
	sizes := []int{1, 5, 8, 16, 24, 33, 64}
	anisos := []int{1, 2, 8}
	wrap := func() texemu.Wrap { return texemu.Wrap(rng.Intn(3)) }
	var texs []*texemu.Texture
	addr := uint32(0)
	for i := 0; i < n; i++ {
		t := &texemu.Texture{
			Target: targets[rng.Intn(len(targets))], Format: formats[i%len(formats)],
			Width: sizes[rng.Intn(len(sizes))], Height: sizes[rng.Intn(len(sizes))], Depth: 1,
			WrapS: wrap(), WrapT: wrap(), WrapR: wrap(),
			MinFilter: texemu.Filter(rng.Intn(6)), MagFilter: texemu.Filter(rng.Intn(2)),
			MaxAniso: anisos[rng.Intn(len(anisos))],
		}
		switch t.Target {
		case isa.TexCube:
			t.Height = t.Width
		case isa.Tex3D:
			t.Depth = 1 + rng.Intn(6)
		case isa.Tex1D:
			t.Height = 1
		}
		t.Levels = 1
		if i == 0 {
			// One tile in all: every texel of every request shares it.
			t.Target, t.Width, t.Height, t.Depth = isa.Tex2D, 8, 5, 1
		} else if rng.Intn(4) > 0 {
			t.Levels = bits.Len(uint(max(t.Width, t.Height, t.Depth)))
		}
		for f := 0; f < t.Faces(); f++ {
			for l := 0; l < t.Levels; l++ {
				t.Base[f][l] = addr
				addr += uint32(t.LevelBytes(l))
			}
		}
		if err := t.Validate(); err != nil {
			panic(err)
		}
		texs = append(texs, t)
	}
	if addr > tuRigMem {
		panic("randomTextures: textures exceed the rig's memory")
	}
	return texs
}

// randomRequest samples tex somewhere in [-1.5, 2.5) with a footprint
// anywhere between magnified and a few levels down, isotropic or
// stretched, in a random TEX/TXB/TXP/TXL mode.
func randomRequest(rng *rand.Rand, id uint64, tex *texemu.Texture) *TexReqMsg {
	req := &shaderemu.TexRequest{Mode: shaderemu.TexMode(rng.Intn(4))}
	base := vmath.Vec4{rng.Float32()*4 - 1.5, rng.Float32()*4 - 1.5, rng.Float32()*4 - 1.5, rng.Float32()*3 - 0.5}
	if tex.Target == isa.TexCube && rng.Intn(2) == 0 {
		base[rng.Intn(3)] *= 8 // a clear major axis
	}
	step := float32(math.Exp2(rng.Float64()*7-2)) / float32(tex.Width)
	dx := vmath.Vec4{step, step * (rng.Float32() - 0.5), step * rng.Float32()}
	dy := vmath.Vec4{step * (rng.Float32() - 0.5), step * float32(math.Exp2(rng.Float64()*4-2)), 0}
	for l := range req.Coord {
		c := base
		if l&1 != 0 {
			c = c.Add(dx)
		}
		if l&2 != 0 {
			c = c.Add(dy)
		}
		req.Coord[l] = c
	}
	return &TexReqMsg{DynObject: core.DynObject{ID: id}, Slot: int(id % 7), Req: req, Texture: tex}
}

// tuEvent is one reply as the shader side sees it.
type tuEvent struct {
	cycle  int64
	id     uint64
	result [shaderLanes][4]uint32
}

func resultBits(res [shaderLanes]vmath.Vec4) (b [shaderLanes][4]uint32) {
	for l := range res {
		for c := range res[l] {
			b[l][c] = math.Float32bits(res[l][c])
		}
	}
	return b
}

// The texture unit must be the reference unit to the cycle and the bit:
// the same replies in the same cycles with the same float bit patterns,
// and after every cycle the same value in every counter of the unit,
// its cache and the memory controller. The unit reads the texels
// resident when a request starts all at once, so the run must meet the
// three shapes that prefix takes: empty, the whole request, and ending
// inside a cycle (where the unit has more than one port). Requests
// arrive in bursts; between bursts both units drain, the texture memory
// is overwritten and the caches are invalidated as at a render-target
// switch, and the next burst starts in the tile the last one ended in
// — a line remembered from one Clock call to a later one would then
// serve stale texels as hits.
func TestTextureUnitMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name                                     string
		sets, assoc, perCycle, filterLat, repQ   int
		textures, bursts, perBurst, invalidateAt int
	}{
		{"thrash-2x2", 2, 2, 4, 4, 2, 12, 10, 150, 2},
		{"direct-1x1-1port", 1, 1, 1, 0, 1, 9, 8, 60, 1},
		{"npot-sets-3x2-2port", 3, 2, 2, 1, 4, 9, 8, 80, 3},
		{"table2-16x4", 16, 4, 4, 4, 4, 12, 10, 200, 2},
	} {
		t.Run(g.name, func(t *testing.T) {
			got := newTURig(t, g.sets, g.assoc, g.perCycle, g.filterLat, g.repQ)
			want := newTURig(t, g.sets, g.assoc, g.perCycle, g.filterLat, g.repQ)
			model := &tuModel{TextureUnit: want.tu}
			want.clock = model.Clock
			rigs := []*tuRig{got, want}
			names := got.sim.Stats.Names()
			stats := make([][2]core.Stat, len(names))
			for i, name := range names {
				stats[i] = [2]core.Stat{got.sim.Stats.Lookup(name), want.sim.Stats.Lookup(name)}
			}

			rng := rand.New(rand.NewSource(int64(g.sets*100 + g.assoc)))
			texs := randomTextures(rng, g.textures)
			texels := make([]byte, tuRigMem)
			id := uint64(0)
			replies := 0
			for burst := 0; burst < g.bursts; burst++ {
				rng.Read(texels)
				for _, r := range rigs {
					r.gm.WriteBytes(0, texels)
					if burst%g.invalidateAt == 0 {
						r.tu.Cache().InvalidateAll()
					}
				}
				sent := 0
				for guard := 0; sent < g.perBurst || !got.idle() || !want.idle() || !model.idle(); guard++ {
					if guard > 2_000_000 {
						t.Fatalf("burst %d never drained", burst)
					}
					room := got.reqIn.CanSend(got.cycle, 1)
					if room != want.reqIn.CanSend(want.cycle, 1) {
						t.Fatalf("cycle %d: request flow has room: %v, reference %v", got.cycle, room, !room)
					}
					if sent < g.perBurst && rng.Intn(3) > 0 && room {
						tex := texs[rng.Intn(len(texs))]
						if sent == 0 || sent == g.perBurst-1 {
							// A burst ends in the tile the next one starts in.
							tex = texs[0]
						}
						seed := rng.Int63()
						for _, r := range rigs {
							// Each unit gets its own message: it rides the reply back.
							r.reqIn.Send(r.cycle, randomRequest(rand.New(rand.NewSource(seed)), id, tex))
						}
						id++
						sent++
					}
					cycle := got.cycle
					a, b := got.step(), want.step()
					if len(a) != len(b) {
						t.Fatalf("cycle %d: %d replies, reference %d", cycle, len(a), len(b))
					}
					for i := range a {
						ea := tuEvent{cycle, a[i].ID, resultBits(a[i].Result)}
						eb := tuEvent{cycle, b[i].ID, resultBits(b[i].Result)}
						if ea != eb {
							t.Fatalf("reply %d differs:\n got %+v\nwant %+v", replies, ea, eb)
						}
						if a[i].Slot != b[i].Slot || a[i].spent == nil {
							t.Fatalf("reply %d: slot %d (reference %d), spent request %v", replies, a[i].Slot, b[i].Slot, a[i].spent)
						}
						replies++
					}
					for i, s := range stats {
						if a, b := s[0].Value(), s[1].Value(); a != b {
							t.Fatalf("cycle %d: %s = %v, reference %v", cycle, names[i], a, b)
						}
					}
					if n := len(got.tu.hooks.fmtOf); n > 8 {
						t.Fatalf("cycle %d: %d fill formats remembered, more than the miss queue holds", cycle, n)
					}
				}
				if n := len(got.tu.hooks.fmtOf); n != 0 {
					t.Fatalf("burst %d: %d fill formats left with no fill in flight", burst, n)
				}
			}
			if replies != int(id) || replies != g.bursts*g.perBurst {
				t.Fatalf("%d replies for %d requests", replies, id)
			}
			// The run must have exercised what it is about.
			stat := func(name string) float64 { return got.sim.Stats.Lookup(name).Value() }
			t.Logf("%d cycles, %v texels, %v hits, %v misses, %v stall cycles; resident prefixes: %d empty, %d whole, %d ending inside a cycle",
				got.cycle, stat("TextureUnit0.texels"), stat("TexCache0.hits"), stat("TexCache0.misses"),
				stat("TextureUnit0.missStallCycles"), model.prefixNone, model.prefixWhole, model.prefixInsideCycle)
			if stat("TexCache0.misses") == 0 || stat("TexCache0.hits") == 0 || stat("TextureUnit0.missStallCycles") == 0 {
				t.Fatalf("hits %v misses %v stalls %v: a path was never taken",
					stat("TexCache0.hits"), stat("TexCache0.misses"), stat("TextureUnit0.missStallCycles"))
			}
			if model.prefixNone == 0 || model.prefixWhole == 0 || (g.perCycle > 1 && model.prefixInsideCycle == 0) {
				t.Fatalf("resident prefixes: %d empty, %d whole, %d ending inside a cycle: a case was never met",
					model.prefixNone, model.prefixWhole, model.prefixInsideCycle)
			}
		})
	}
}

// A texture bigger than the cache, sampled end to end, leaves the
// format map empty: it holds fills in flight only. DXT1 and RGBA8
// textures share the unit, so a tile that is evicted and misses again
// must find its format again — checked against the functional sampler.
func TestTextureUnitFillFormatsBounded(t *testing.T) {
	r := newTURig(t, 2, 2, 4, 4, 4)
	texs := make([]*texemu.Texture, 2)
	addr := uint32(0)
	for i, f := range []texemu.Format{texemu.FmtDXT1, texemu.FmtRGBA8} {
		texs[i] = &texemu.Texture{
			Target: isa.Tex2D, Format: f, Width: 64, Height: 64, Depth: 1, Levels: 1,
			MinFilter: texemu.FilterLinear, MagFilter: texemu.FilterLinear, MaxAniso: 1,
		}
		texs[i].Base[0][0] = addr
		addr += uint32(texs[i].LevelBytes(0))
	}
	rng := rand.New(rand.NewSource(7))
	texels := make([]byte, addr)
	rng.Read(texels)
	r.gm.WriteBytes(0, texels)

	// Row-major over the 8x8 tile grid of both textures, twice: 64 tiles
	// against 4 lines, so the second pass misses on evicted tiles.
	reqs := map[uint64]*TexReqMsg{}
	var order []*TexReqMsg
	for pass := 0; pass < 2; pass++ {
		for tile := 0; tile < 64; tile++ {
			for _, tex := range texs {
				s, tt := (float32(tile%8)*8+4)/64, (float32(tile/8)*8+4)/64
				req := &shaderemu.TexRequest{}
				for l := range req.Coord {
					req.Coord[l] = vmath.Vec4{s + float32(l&1)/64, tt + float32(l>>1)/64}
				}
				msg := &TexReqMsg{DynObject: core.DynObject{ID: uint64(len(order))}, Req: req, Texture: tex}
				reqs[msg.ID] = msg
				order = append(order, msg)
			}
		}
	}
	done := 0
	for next := 0; done < len(order); {
		if r.cycle > 1_000_000 {
			t.Fatal("requests never completed")
		}
		if next < len(order) && r.reqIn.CanSend(r.cycle, 1) {
			r.reqIn.Send(r.cycle, order[next])
			next++
		}
		for _, rep := range r.step() {
			msg := reqs[rep.ID]
			want := msg.Texture.SampleQuad(r.gm, msg.Req.Coord, texemu.ModeNormal)
			if resultBits(rep.Result) != resultBits(want) {
				t.Fatalf("request %d (%v): got %v, functional sampler %v", rep.ID, msg.Texture.Format, rep.Result, want)
			}
			done++
		}
		if n := len(r.tu.hooks.fmtOf); n > 8 {
			t.Fatalf("cycle %d: %d fill formats remembered, more than the miss queue holds", r.cycle, n)
		}
	}
	for !r.idle() {
		r.step()
	}
	if n := len(r.tu.hooks.fmtOf); n != 0 {
		t.Fatalf("%d fill formats left on a quiesced unit", n)
	}
	if fills := r.sim.Stats.Lookup("TexCache0.fills").Value(); fills < 2*2*64 {
		t.Fatalf("%v fills: the second pass did not miss again", fills)
	}
}

// BenchmarkTextureUnitQuad is the host cost of one simulated texture
// request at a 100 % hit rate, the memory controller left out because
// nothing misses: bilinear quads inside one resident tile, and the
// common game request, trilinear with 8x anisotropy over a 32x32
// mipmapped texture whose 24 tiles all stay resident.
func BenchmarkTextureUnitQuad(b *testing.B) {
	for _, c := range []struct {
		name          string
		size, levels  int
		min           texemu.Filter
		wrap          texemu.Wrap
		aniso         int
		dx, dy        float32 // texels stepped per pixel
		lo, hi        float32 // range of the quads' texture coordinates
		texelsPerQuad int     // what the footprint must plan: 2x2 per lane, position and level
	}{
		{"bilinear-1tile", 8, 1, texemu.FilterLinear, texemu.WrapClamp, 1, 0.5, 0.5, 0.2, 0.8, 16},
		{"trilinear-aniso8", 32, 6, texemu.FilterLinearMipLinear, texemu.WrapRepeat, 8, 12, 1.5, 0, 1, 256},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := newTURig(b, 16, 4, 4, 4, 4)
			tex := &texemu.Texture{
				Target: isa.Tex2D, Format: texemu.FmtRGBA8, Width: c.size, Height: c.size, Depth: 1, Levels: c.levels,
				WrapS: c.wrap, WrapT: c.wrap, MinFilter: c.min, MagFilter: texemu.FilterLinear, MaxAniso: c.aniso,
			}
			addr := uint32(0)
			for l := 0; l < c.levels; l++ {
				tex.Base[0][l] = addr
				addr += uint32(tex.LevelBytes(l))
			}
			rng := rand.New(rand.NewSource(1))
			texels := make([]byte, addr)
			rng.Read(texels)
			r.gm.WriteBytes(0, texels)
			msgs := make([]*TexReqMsg, 64)
			for i := range msgs {
				req := &shaderemu.TexRequest{}
				s, tt := c.lo+(c.hi-c.lo)*rng.Float32(), c.lo+(c.hi-c.lo)*rng.Float32()
				for l := range req.Coord {
					req.Coord[l] = vmath.Vec4{s + float32(l&1)*c.dx/float32(c.size), tt + float32(l>>1)*c.dy/float32(c.size)}
				}
				msgs[i] = &TexReqMsg{DynObject: core.DynObject{ID: uint64(i)}, Req: req, Texture: tex}
			}
			// Warm up: every request once, its misses served; then time
			// the unit alone.
			for sent, done := 0, 0; done < len(msgs) || !r.idle(); {
				if sent < len(msgs) && r.reqIn.CanSend(r.cycle, 1) {
					r.reqIn.Send(r.cycle, msgs[sent])
					sent++
				}
				done += len(r.step())
			}
			misses := r.sim.Stats.Lookup("TexCache0.misses").Value()
			texels0 := r.sim.Stats.Lookup("TextureUnit0.texels").Value()
			b.ReportAllocs()
			b.ResetTimer()
			for sent, done := 0, 0; done < b.N; r.cycle++ {
				c := r.cycle
				if sent < b.N && r.reqIn.CanSend(c, 1) {
					r.reqIn.Send(c, msgs[sent%len(msgs)])
					sent++
				}
				r.tu.Clock(c)
				k := len(r.repOut.Recv(c))
				r.repOut.Release(k)
				done += k
				barrier(r.sim, c, r.reqIn, r.repOut)
			}
			b.StopTimer()
			if m := r.sim.Stats.Lookup("TexCache0.misses").Value(); m != misses {
				b.Fatalf("%v misses after the warm-up: the benchmark is about hits", m-misses)
			}
			if n := (r.sim.Stats.Lookup("TextureUnit0.texels").Value() - texels0) / float64(b.N); n != float64(c.texelsPerQuad) {
				b.Fatalf("%v texels per request, want %d", n, c.texelsPerQuad)
			}
		})
	}
}
