package main

import (
	"fmt"
	"time"

	"attila/internal/core"
	"attila/internal/emu/clipemu"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/rastemu"
	"attila/internal/emu/shaderemu"
	"attila/internal/emu/texemu"
	"attila/internal/gpu"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/vmath"
)

// The kernels time one layer each from outside, through its exported
// functions, on inputs made from the seed. They are workload
// independent: every traced run repeats them, so the layer a wall_s
// change came from can be read next to the workload it showed on.

// sink keeps results alive so the compiler cannot drop a timed call.
var sink float64

// perOp times fn — which performs n operations — three times and
// returns the median nanoseconds per operation.
func perOp(n int, fn func()) float64 {
	var ns [3]float64
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ns[:])
}

// perSecondM converts ns per operation into millions per second.
func perSecondM(nsPerOp float64) float64 { return 1e3 / nsPerOp }

func runKernels(e *env, m *metricSet, ladderCmds []gpu.Command) error {
	if err := shaderemuKernels(e, m, ladderCmds); err != nil {
		return err
	}
	texemuKernels(e, m)
	rasterKernels(e, m)
	fragemuKernels(e, m)
	coreKernels(e, m)
	return memKernels(e, m)
}

// fixedFunctionProgram picks the driver-generated fragment program of a
// command stream that samples the most textures: the multitexture
// terrain program of the ut2004 scene.
func fixedFunctionProgram(cmds []gpu.Command) (*isa.Program, []vmath.Vec4) {
	var best *gpu.DrawState
	bestTex := -1
	for _, c := range cmds {
		d, ok := c.(gpu.CmdDraw)
		if !ok || d.State.FragmentProg == nil {
			continue
		}
		n := 0
		for _, in := range d.State.FragmentProg.Instr {
			if in.Op.Info().Texture {
				n++
			}
		}
		if n > bestTex {
			best, bestTex = d.State, n
		}
	}
	if best == nil {
		return nil, nil
	}
	return best.FragmentProg, best.FragConsts
}

func shaderemuKernels(e *env, m *metricSet, ladderCmds []gpu.Command) error {
	rng := newRand(e.seed)
	fill := func(th *shaderemu.Thread) {
		for l := 0; l < shaderemu.Lanes; l++ {
			th.Active[l] = true
			for s := range th.In[l] {
				th.In[l][s] = vmath.Vec4{rng.f32(), rng.f32(), rng.f32(), 1}
			}
		}
	}

	alu, err := isa.Assemble(isa.FragmentProgram, "alu-fp", shaderALUProgram())
	if err != nil {
		return err
	}
	emu := shaderemu.New(alu, []vmath.Vec4{{3, 2.4, -2 + rng.f32()*0.2, -1.2}, {4, 0.25, 1, 0}})
	th := emu.NewThread()
	runs := e.n(3000)
	instrs := 0
	ns := perOp(runs, func() {
		instrs = 0
		for i := 0; i < runs; i++ {
			th.Reset(alu.TempsUsed())
			fill(th)
			n, err := emu.Run(th, nil)
			if err != nil {
				panic(err) // a TEX-free program cannot fail to sample
			}
			instrs += n
		}
		sink += float64(th.Out[0][0][0])
	})
	m.set("shaderemu.alu_minstr_per_s", perSecondM(ns*float64(runs)/float64(instrs)))

	ff, consts := fixedFunctionProgram(ladderCmds)
	if ff == nil {
		return fmt.Errorf("no fragment program in the ut2004 command stream")
	}
	texel := [shaderemu.Lanes]vmath.Vec4{{0.5, 0.4, 0.3, 1}, {0.6, 0.5, 0.4, 1}, {0.7, 0.6, 0.5, 1}, {0.8, 0.7, 0.6, 1}}
	sample := func(*shaderemu.TexRequest) [shaderemu.Lanes]vmath.Vec4 { return texel }
	emu = shaderemu.New(ff, consts)
	th = emu.NewThread()
	runs = e.n(30000)
	ns = perOp(runs, func() {
		instrs = 0
		for i := 0; i < runs; i++ {
			th.Reset(ff.TempsUsed())
			fill(th)
			n, err := emu.Run(th, sample)
			if err != nil {
				panic(err)
			}
			instrs += n
		}
		sink += float64(th.Out[0][0][0])
	})
	m.set("shaderemu.ff_minstr_per_s", perSecondM(ns*float64(runs)/float64(instrs)))

	// Step + CompleteTexture is the path ShaderUnit drives cycle by cycle.
	ns = perOp(runs, func() {
		instrs = 0
		for i := 0; i < runs; i++ {
			th.Reset(ff.TempsUsed())
			fill(th)
			for !th.Done {
				emu.Step(th)
				instrs++
				if th.Blocked != nil {
					emu.CompleteTexture(th, texel)
				}
			}
		}
		sink += float64(th.Out[0][0][0])
	})
	m.set("shaderemu.step_ns_per_instr", ns*float64(runs)/float64(instrs))
	return nil
}

// kernelTexture lays a mipmapped square texture of seeded noise out in
// memory, tile by tile, the way the GL layer uploads one.
func kernelTexture(gm *mem.GPUMemory, base uint32, size int, f texemu.Format, rng *rand) (*texemu.Texture, uint32) {
	t := &texemu.Texture{
		Target: isa.Tex2D, Format: f, Width: size, Height: size, Depth: 1,
		WrapS: texemu.WrapRepeat, WrapT: texemu.WrapRepeat, WrapR: texemu.WrapRepeat,
		MinFilter: texemu.FilterLinearMipLinear, MagFilter: texemu.FilterLinear, MaxAniso: 1,
	}
	for s := size; s >= 1; s /= 2 {
		t.Levels++
	}
	var texels [texemu.TileTexels * texemu.TileTexels]texemu.RGBA
	tile := make([]byte, f.TileBytes())
	for l := 0; l < t.Levels; l++ {
		t.Base[0][l] = base
		w, h, _ := t.LevelSize(l)
		for y := 0; y < h; y += texemu.TileTexels {
			for x := 0; x < w; x += texemu.TileTexels {
				for i := range texels {
					v := rng.u32()
					texels[i] = texemu.RGBA{byte(v), byte(v >> 8), byte(v >> 16), 255}
				}
				texemu.EncodeTile(f, &texels, tile)
				addr, _ := t.TileAddr(0, l, 0, x, y)
				gm.WriteBytes(addr, tile)
			}
		}
		base += uint32(t.LevelBytes(l))
	}
	return t, base
}

func texemuKernels(e *env, m *metricSet) {
	rng := newRand(e.seed + 1)
	gm := mem.NewGPUMemory(1 << 20)
	tex, _ := kernelTexture(gm, 0, 256, texemu.FmtRGBA8, rng)
	if err := tex.Validate(); err != nil {
		panic(err) // the descriptor is built here, not read from input
	}
	const texel = 1.0 / 256
	// quads of screen-adjacent lanes stepping (dx, dy) texels per pixel
	quads := func(n int, dx, dy float32) [][4]vmath.Vec4 {
		out := make([][4]vmath.Vec4, n)
		for i := range out {
			u, v := rng.f32(), rng.f32()
			out[i] = [4]vmath.Vec4{
				{u, v, 0, 1}, {u + dx*texel, v, 0, 1},
				{u, v + dy*texel, 0, 1}, {u + dx*texel, v + dy*texel, 0, 1},
			}
		}
		return out
	}
	sampleRate := func(n int, dx, dy float32) float64 {
		qs := quads(n, dx, dy)
		return perSecondM(perOp(n, func() {
			for i := range qs {
				out := tex.SampleQuad(gm, qs[i], texemu.ModeNormal)
				sink += float64(out[0][0])
			}
		}))
	}
	tex.MinFilter = texemu.FilterLinear
	m.set("texemu.bilinear_mquads_per_s", sampleRate(e.n(16000), 1, 1))
	tex.MinFilter = texemu.FilterLinearMipLinear
	m.set("texemu.trilinear_mquads_per_s", sampleRate(e.n(8000), 2.5, 2.5))
	tex.MaxAniso = 8
	m.set("texemu.aniso8_mquads_per_s", sampleRate(e.n(1200), 12, 1.5))

	// QuadLOD + PlanInto per lane is what the TextureUnit box calls.
	qs := quads(e.n(10000), 12, 1.5)
	var plan texemu.SamplePlan
	m.set("texemu.plan_ns_per_quad", perOp(len(qs), func() {
		for i := range qs {
			info := tex.QuadLOD(qs[i], texemu.ModeNormal, 0)
			for l := 0; l < 4; l++ {
				tex.PlanInto(&plan, qs[i][l], info)
				sink += float64(plan.BilinearSamples)
			}
		}
	}))

	var texels [texemu.TileTexels * texemu.TileTexels]texemu.RGBA
	raw := make([]byte, texemu.FmtDXT3.TileBytes())
	for i := range raw {
		raw[i] = byte(rng.u32())
	}
	n := e.n(100000)
	m.set("texemu.dxt_decode_mtiles_per_s", perSecondM(perOp(n, func() {
		for i := 0; i < n; i += 2 {
			texemu.DecodeTile(texemu.FmtDXT1, raw[:texemu.FmtDXT1.TileBytes()], &texels)
			texemu.DecodeTile(texemu.FmtDXT3, raw, &texels)
		}
		sink += float64(texels[0][0])
	})))
}

func rasterKernels(e *env, m *metricSet) {
	rng := newRand(e.seed + 2)
	vp := rastemu.Viewport{W: 256, H: 192, Near: 0, Far: 1}
	tris := make([][3]vmath.Vec4, e.n(100000))
	for i := range tris {
		for v := 0; v < 3; v++ {
			tris[i][v] = vmath.Vec4{rng.sym(1.5), rng.sym(1.5), rng.sym(1), 1}
		}
	}
	m.set("rastemu.setup_mtri_per_s", perSecondM(perOp(len(tris), func() {
		for i := range tris {
			if t, ok := rastemu.Setup(tris[i], vp, false, false); ok {
				sink += float64(t.Area)
			}
		}
	})))
	m.set("clipemu.classify_mtri_per_s", perSecondM(perOp(len(tris), func() {
		n := 0
		for i := range tris {
			if clipemu.TriviallyRejected(tris[i][0], tris[i][1], tris[i][2]) {
				n++
			} else if clipemu.FullyInside(tris[i][0], tris[i][1], tris[i][2]) {
				n += 2
			}
		}
		sink += float64(n)
	})))

	// One viewport-filling triangle, every covered pixel evaluated the
	// way the fragment generator and interpolator do.
	big := [3]vmath.Vec4{{-1, -1, 0.2, 1}, {1, -1, 0.5, 1.5}, {-1 + rng.f32()*0.1, 1, 0.8, 2}}
	tri, ok := rastemu.Setup(big, vp, false, false)
	if !ok {
		panic("bench: the fixed kernel triangle was culled")
	}
	attrs := [3]vmath.Vec4{{1, 0, 0, 1}, {0, 1, 0, 1}, {0, 0, 1, 1}}
	passes := e.n(40)
	covered := 0
	ns := perOp(1, func() {
		covered = 0
		for p := 0; p < passes; p++ {
			for y := tri.MinY; y <= tri.MaxY; y++ {
				for x := tri.MinX; x <= tri.MaxX; x++ {
					ev := tri.EvalEdges(x, y)
					if !tri.Inside(ev) {
						continue
					}
					covered++
					v := tri.Interpolate(ev, &attrs)
					sink += float64(tri.Depth(x, y) + v[0])
				}
			}
		}
	})
	m.set("rastemu.frag_mfrag_per_s", perSecondM(ns/float64(covered)))
}

func fragemuKernels(e *env, m *metricSet) {
	rng := newRand(e.seed + 3)
	n := e.n(400000)
	depth := make([]uint32, 1024)
	stored := make([]uint32, 1024)
	for i := range depth {
		depth[i] = rng.u32() & fragemu.MaxDepth
		stored[i] = fragemu.PackDS(rng.u32()&fragemu.MaxDepth, uint8(rng.u32()))
	}
	ds := fragemu.DepthState{Enabled: true, Func: fragemu.CmpLess, WriteMask: true}
	ss := fragemu.StencilState{Enabled: true, Func: fragemu.CmpAlways, ReadMask: 0xFF, WriteMask: 0xFF,
		SFail: fragemu.StKeep, DPFail: fragemu.StIncrWrap, DPPass: fragemu.StKeep}
	m.set("fragemu.ztest_mfrag_per_s", perSecondM(perOp(n, func() {
		var acc uint32
		for i := 0; i < n; i++ {
			r := fragemu.ZStencilTest(ds, ss, depth[i&1023], stored[(i*7)&1023])
			acc += r.Out
		}
		sink += float64(acc)
	})))

	colors := make([]vmath.Vec4, 1024)
	for i := range colors {
		colors[i] = vmath.Vec4{rng.f32(), rng.f32(), rng.f32(), rng.f32()}
	}
	bs := fragemu.BlendState{Enabled: true,
		SrcRGB: fragemu.BfSrcAlpha, DstRGB: fragemu.BfOneMinusSrcAlpha,
		SrcA: fragemu.BfOne, DstA: fragemu.BfOneMinusSrcAlpha}
	m.set("fragemu.blend_mfrag_per_s", perSecondM(perOp(n, func() {
		var acc byte
		for i := 0; i < n; i++ {
			c := fragemu.PackColor(fragemu.Blend(bs, colors[i&1023], colors[(i*5)&1023]))
			acc += c[0]
		}
		sink += float64(acc)
	})))

	// Half the blocks are planes (what a triangle's interior writes and
	// the compressor is built for), half are noise (the fallback).
	blocks := make([][fragemu.ZBlockElems]uint32, 64)
	for b := range blocks {
		base, dx, dy := rng.u32()&0x7FFFFF, rng.u32()&0xFF, rng.u32()&0xFF
		for i := range blocks[b] {
			if b%2 == 0 {
				blocks[b][i] = fragemu.PackDS(base+dx*uint32(i%8)+dy*uint32(i/8), 0)
			} else {
				blocks[b][i] = rng.u32()
			}
		}
	}
	nb := e.n(40000)
	buf := make([]byte, 0, 256)
	var out [fragemu.ZBlockElems]uint32
	m.set("fragemu.zcompress_mblocks_per_s", perSecondM(perOp(nb, func() {
		for i := 0; i < nb; i++ {
			level, data, maxZ := fragemu.CompressZBlock(&blocks[i&63], buf)
			fragemu.DecompressZBlock(level, data, &out)
			sink += float64(maxZ)
		}
	})))
}

// idleBox reads its input wire and does nothing else: what most boxes
// of a mostly idle machine do on most cycles.
type idleBox struct {
	core.BoxBase
	in     *core.Signal
	cycles int64
}

func (b *idleBox) Clock(cycle int64) {
	b.in.Read(cycle)
	b.cycles++
}

// idleSim chains n idle boxes into a ring of latency-1 signals.
func idleSim(n int, cycles int64, workers int) *core.Simulator {
	sim := core.NewSimulator(0)
	boxes := make([]*idleBox, n)
	for i := range boxes {
		boxes[i] = &idleBox{}
		boxes[i].Init(fmt.Sprintf("Idle%d", i))
	}
	for i, b := range boxes {
		next := boxes[(i+1)%n]
		name := fmt.Sprintf("wire%d", i)
		sim.Binder.Provide(b.BoxName(), name, 1, 1, 0)
		sim.Binder.Bind(next.BoxName(), name, &next.in)
		sim.Register(b)
	}
	sim.SetWorkers(workers)
	sim.SetDone(func() bool { return boxes[0].cycles >= cycles })
	return sim
}

func coreKernels(e *env, m *metricSet) {
	n := e.n(1000000)
	sig := core.NewSignal("kernel", 1, 1, 0)
	obj := &core.DynObject{}
	var base int64 // cycles only move forward, across rounds too
	m.set("core.signal_rw_ns", perOp(n, func() {
		for c := base; c < base+int64(n); c++ {
			sink += float64(len(sig.Read(c)))
			sig.Write(c, obj)
		}
		base += int64(n)
	}))

	var q core.FIFO[int]
	m.set("core.fifo_pushpop_ns", perOp(n, func() {
		for i := 0; i < n; i += 4 {
			q.Push(i)
			q.Push(i + 1)
			q.Push(i + 2)
			q.Push(i + 3)
			sink += float64(q.Pop() + q.Pop() + q.Pop() + q.Pop())
		}
	}))

	const boxes = 32
	cycles := int64(e.n(200000))
	m.set("core.idle_boxclock_ns", perOp(int(cycles)*boxes, func() {
		if err := idleSim(boxes, cycles, 0).Run(maxCycles); err != nil {
			panic(err)
		}
	}))
	// With two workers and nothing to compute a cycle costs one barrier
	// round trip; on one CPU the number is the scheduler's, not ours.
	cycles = int64(e.n(100000))
	m.set("core.par2_cycle_ns", perOp(int(cycles), func() {
		if err := idleSim(boxes, cycles, 2).Run(maxCycles); err != nil {
			panic(err)
		}
	}))
}

// driveController pushes n 64-byte transactions through one port into
// the controller, clocking it by hand, and returns host ns per
// transaction and the simulated cycles used.
func driveController(n int, next func(i int) (addr uint32, write bool)) (nsPerTx float64, cycles int64, err error) {
	sim := core.NewSimulator(0)
	cfg := mem.DefaultControllerConfig()
	port := mem.NewPort(sim, "K", cfg.QueuePerUnit)
	mc := mem.NewController(sim, cfg, mem.NewGPUMemory(1<<22), []string{"K"})
	if err := sim.Binder.Validate(); err != nil {
		return 0, 0, err
	}
	payload := make([]byte, 64)
	issued, done := 0, 0
	t0 := time.Now()
	var c int64
	for ; done < n; c++ {
		done += len(port.Replies(c))
		for issued < n && port.CanIssue() {
			if addr, write := next(issued); write {
				port.Write(c, addr, payload, 0)
			} else {
				port.Read(c, addr, 64, 0)
			}
			issued++
		}
		mc.Clock(c)
		if c > int64(n)*1000 {
			return 0, 0, fmt.Errorf("memory controller kernel made no progress")
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), c, nil
}

func memKernels(e *env, m *metricSet) error {
	rng := newRand(e.seed + 4)
	n := e.n(200000)
	const lines = (1 << 22) / 64
	var seqNs [3]float64
	var seqCycles int64
	for i := range seqNs {
		var err error
		seqNs[i], seqCycles, err = driveController(n, func(i int) (uint32, bool) { return uint32(i%lines) * 64, false })
		if err != nil {
			return err
		}
	}
	m.set("mem.ctrl_seq_mtx_per_s", perSecondM(median(seqNs[:])))
	m.set("mem.ctrl_seq_sim_bytes_per_cycle", float64(n)*64/float64(seqCycles))

	pattern := make([]uint32, n) // address and, in bit 0, the write flag
	for i := range pattern {
		pattern[i] = uint32(rng.intn(lines))*64 | uint32(rng.intn(2))
	}
	var rndNs [3]float64
	for i := range rndNs {
		var err error
		rndNs[i], _, err = driveController(n, func(i int) (uint32, bool) { return pattern[i] &^ 1, pattern[i]&1 == 1 })
		if err != nil {
			return err
		}
	}
	m.set("mem.ctrl_rand_rw_mtx_per_s", perSecondM(median(rndNs[:])))

	// One resident line, looked up and read the way a ROP or TU does.
	sim := core.NewSimulator(0)
	ccfg := mem.DefaultCacheConfig("KC")
	cache := mem.NewCache(sim, ccfg, mem.PassThrough{})
	mc := mem.NewController(sim, mem.DefaultControllerConfig(), mem.NewGPUMemory(1<<20), []string{ccfg.Name})
	if err := sim.Binder.Validate(); err != nil {
		return err
	}
	const key = 0x1000
	var c int64
	if !cache.RequestFill(c, key) {
		return fmt.Errorf("cache kernel: fill refused")
	}
	for ; !cache.Probe(key); c++ {
		cache.Clock(c)
		mc.Clock(c)
		if c > 10000 {
			return fmt.Errorf("cache kernel: line never filled")
		}
	}
	hits := e.n(2000000)
	dst := make([]byte, 16)
	m.set("mem.cache_hit_ns", perOp(hits, func() {
		for i := 0; i < hits; i++ {
			if cache.Lookup(c, key) {
				cache.Read(key, (i&15)*16, dst)
			}
		}
		sink += float64(dst[0])
	}))
	return nil
}
