package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"attila/internal/core"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// paHarness drives a PrimAssembly box standalone.
type paHarness struct {
	sim   *core.Simulator
	pa    *PrimAssembly
	in    *Flow
	out   *Flow
	tris  [][3]int
	batch *BatchState
}

func newPAHarness(t *testing.T, mode PrimMode, count int) *paHarness {
	t.Helper()
	sim := core.NewSimulator(0)
	in := pFlow(sim, "src", "PrimAssembly", "Streamer.VtxOut", 1, 1, 0, 8)
	out := pFlow(sim, "PrimAssembly", "sink", "PA.TriOut", 1, 1, 0, 1024)
	h := &paHarness{sim: sim, in: in, out: out}
	h.pa = NewPrimAssembly(sim, &pipePool{}, in, out)
	h.batch = &BatchState{State: &DrawState{Primitive: mode, Count: count}}
	return h
}

// run feeds count vertices (seq as payload, in the first output) and
// collects emitted triangles as ordinal triples.
func (h *paHarness) run(t *testing.T, count int) [][3]int {
	t.Helper()
	seq := 0
	ids := &h.sim.IDs
	for cycle := int64(0); cycle < int64(count*4+64); cycle++ {
		if seq < count && h.in.CanSend(cycle, 1) {
			sv := &ShadedVertex{
				DynObject: core.DynObject{ID: ids.Next()},
				Batch:     h.batch, Seq: seq,
			}
			sv.Out[0][0] = float32(seq)
			h.in.Send(cycle, sv)
			seq++
		}
		h.pa.Clock(cycle)
		for _, obj := range h.out.Recv(cycle) {
			tw := obj.(*TriWork)
			h.out.Release(1)
			h.tris = append(h.tris, [3]int{int(tw.V[0][0][0]), int(tw.V[1][0][0]), int(tw.V[2][0][0])})
		}
		// Manual harness: run the cycle barrier so released flow
		// credits become visible to the producer next cycle.
		h.sim.EndCycle(cycle)
	}
	return h.tris
}

// The PrimAssembly box must emit exactly the triangles of the pure
// TriangleIndices decomposition (used by the reference renderer), in
// the same order and winding, for every primitive mode.
func TestPrimAssemblyMatchesTriangleIndices(t *testing.T) {
	for _, mode := range []PrimMode{Triangles, TriangleStrip, TriangleFan, Quads, QuadStrip} {
		for _, count := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 16} {
			h := newPAHarness(t, mode, count)
			got := h.run(t, count)
			want := TriangleIndices(mode, count)
			if len(got) != len(want) {
				t.Fatalf("%v count=%d: box emitted %d tris, pure %d (%v vs %v)",
					mode, count, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v count=%d tri %d: box %v pure %v", mode, count, i, got[i], want[i])
				}
			}
			if count > 0 && !h.batch.PADone {
				t.Fatalf("%v count=%d: PADone not set", mode, count)
			}
		}
	}
}

func TestTriangleIndicesCounts(t *testing.T) {
	cases := []struct {
		mode  PrimMode
		count int
		tris  int
	}{
		{Triangles, 9, 3},
		{Triangles, 10, 3}, // trailing partial dropped
		{TriangleStrip, 7, 5},
		{TriangleFan, 7, 5},
		{Quads, 8, 4},
		{Quads, 11, 4},
		{QuadStrip, 8, 6},
	}
	for _, c := range cases {
		if got := len(TriangleIndices(c.mode, c.count)); got != c.tris {
			t.Errorf("%v x%d: %d tris, want %d", c.mode, c.count, got, c.tris)
		}
	}
}

// Both fragment generator algorithms must produce identical images
// and identical quad counts (they traverse in different orders but
// cover the same fragments).
func TestFragmentGeneratorAlgorithmsEquivalent(t *testing.T) {
	render := func(alg FGenAlgorithm) (*Frame, float64) {
		cfg := BaselineUnified()
		cfg.StatInterval = 0
		cfg.FGenAlgorithm = alg
		p, err := New(cfg, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		red := vmath.Vec4{1, 0, 0, 1}
		blue := vmath.Vec4{0, 0, 1, 1}
		st, vbuf := testState(t, p, 6)
		verts := buildVerts(
			vtx(-0.9, -0.8, 0.2, red), vtx(0.8, -0.7, 0.2, red), vtx(0.1, 0.9, 0.2, red),
			vtx(-0.5, -0.9, 0.1, blue), vtx(0.9, 0.2, 0.1, blue), vtx(-0.7, 0.6, 0.1, blue),
		)
		cmds := []Command{
			CmdBufferWrite{Addr: vbuf, Data: verts},
			CmdClearZS{Depth: 1, Stencil: 0},
			CmdClearColor{Value: [4]byte{0, 0, 0, 255}},
			CmdDraw{State: st},
			CmdSwap{},
		}
		if err := p.Run(cmds, 5_000_000); err != nil {
			t.Fatal(err)
		}
		return p.Frames()[0], p.Sim.Stats.Lookup("FGen.quads").Value()
	}
	fRec, qRec := render(FGenRecursive)
	fScan, qScan := render(FGenScanline)
	if diff, _ := DiffFrames(fRec, fScan); diff != 0 {
		t.Fatalf("algorithms render differently: %d px", diff)
	}
	if qRec != qScan {
		t.Fatalf("quad counts differ: recursive %v scanline %v", qRec, qScan)
	}
}

func TestConfigValidation(t *testing.T) {
	good := Baseline()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumShaders = 0 },
		func(c *Config) { c.NumROPs = 0 },
		func(c *Config) { c.NumTextureUnits = 0 },
		func(c *Config) { c.UnifiedShaders = false; c.NumVertexShaders = 0 },
		func(c *Config) { c.ROPFragsPerCycle = 2 },
		func(c *Config) { c.Memory.Channels = 0 },
		func(c *Config) { c.GPUMemBytes = 1024 },
	}
	for i, mod := range bad {
		cfg := Baseline()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// Every configuration the pipeline cannot run is refused up front with
// a *ConfigError, not a panic inside New or mid-run, nor a stall that
// lasts until the watchdog fires. Values a box clamps or never reads
// still build.
func TestNewRejectsUnrunnableConfigs(t *testing.T) {
	cases := []struct {
		name  string
		mod   func(*Config)
		width int
	}{
		{"ClipLatency=0", func(c *Config) { c.ClipLatency = 0 }, 64},
		{"SetupLatency=0", func(c *Config) { c.SetupLatency = 0 }, 64},
		{"InterpQuadsPerCycle=0", func(c *Config) { c.InterpQuadsPerCycle = 0 }, 64},
		{"InterpBaseLat=0", func(c *Config) { c.InterpBaseLat = 0 }, 64},
		{"TexCacheSets=0", func(c *Config) { c.TexCacheSets = 0 }, 64},
		{"ZCacheAssoc=0", func(c *Config) { c.ZCacheAssoc = 0 }, 64},
		{"ColorCacheSets=0", func(c *Config) { c.ColorCacheSets = 0 }, 64},
		{"PAQueue=0", func(c *Config) { c.PAQueue = 0 }, 64},
		{"ClipQueue=0", func(c *Config) { c.ClipQueue = 0 }, 64},
		{"SetupQueue=0", func(c *Config) { c.SetupQueue = 0 }, 64},
		{"FGenQueue=0", func(c *Config) { c.FGenQueue = 0 }, 64},
		{"HZQueue=0", func(c *Config) { c.HZQueue = 0 }, 64},
		{"ROPQueue=0", func(c *Config) { c.ROPQueue = 0 }, 64},
		{"InterpQueue=0", func(c *Config) { c.InterpQueue = 0 }, 64},
		{"TexQueue=0", func(c *Config) { c.TexQueue = 0 }, 64},
		{"HZTilesPerCycle=0", func(c *Config) { c.HZTilesPerCycle = 0 }, 64},
		{"TexelsPerCycle=0", func(c *Config) { c.TexelsPerCycle = 0 }, 64},
		{"SystemBusBW=0", func(c *Config) { c.SystemBusBW = 0 }, 64},
		{"VertexFetchLines=1", func(c *Config) { c.VertexFetchLines = 1 }, 64},
		{"PhysRegsFragment=0", func(c *Config) { c.PhysRegsFragment = 0 }, 64},
		{"PhysRegsVertex=0", func(c *Config) { c.PhysRegsVertex = 0 }, 64},
		{"VertexThreadsPerShader=0", func(c *Config) { c.VertexThreadsPerShader = 0 }, 64},
		{"ShaderIssueRate=0", func(c *Config) { c.ShaderIssueRate = 0 }, 64},
		{"Memory.ChannelBW=0", func(c *Config) { c.Memory.ChannelBW = 0 }, 64},
		{"Memory.Interleave=0", func(c *Config) { c.Memory.Interleave = 0 }, 64},
		{"Memory.PageSize=0", func(c *Config) { c.Memory.PageSize = 0 }, 64},
		{"Memory.QueuePerUnit=0", func(c *Config) { c.Memory.QueuePerUnit = 0 }, 64},
		{"width=-8", func(c *Config) {}, -8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Baseline()
			cfg.GPUMemBytes = 8 << 20
			tc.mod(&cfg)
			var ce *ConfigError
			p, err := func() (p *Pipeline, err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("New panicked: %v", r)
					}
				}()
				return New(cfg, tc.width, 48)
			}()
			if !errors.As(err, &ce) {
				t.Fatalf("New = (%v, %v), want a *ConfigError", p != nil, err)
			}
		})
	}
	for _, mod := range []func(*Config){
		func(c *Config) { c.VertexCacheEntries = 1 },
		func(c *Config) { c.TexFilterLat = 0 },
		func(c *Config) { c.StreamerQueue = 0 },
	} {
		cfg := Baseline()
		cfg.GPUMemBytes = 8 << 20
		mod(&cfg)
		if _, err := New(cfg, 64, 48); err != nil {
			t.Errorf("a runnable config refused: %v", err)
		}
	}
}

func TestConfigPresets(t *testing.T) {
	for _, cfg := range []Config{
		Baseline(), BaselineUnified(), CaseStudy(3, ScheduleWindow),
		CaseStudy(1, ScheduleInOrderQueue), Embedded(), HighEnd(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	cs := CaseStudy(2, ScheduleInOrderQueue)
	if cs.NumTextureUnits != 2 || cs.Schedule != ScheduleInOrderQueue ||
		cs.NumShaders != 3 || cs.NumROPs != 1 || cs.Memory.Channels != 2 {
		t.Fatalf("case study config wrong: %+v", cs)
	}
}

func TestSurfaceLayout(t *testing.T) {
	l := NewSurfaceLayout(1024, 64, 48)
	if l.NumBlocks() != 8*6 {
		t.Fatalf("blocks: %d", l.NumBlocks())
	}
	if l.Bytes() != 48*256 {
		t.Fatalf("bytes: %d", l.Bytes())
	}
	// Pixels in the same 8x8 tile share a block address.
	if l.BlockAddr(0, 0) != l.BlockAddr(7, 7) {
		t.Fatal("tile pixels in different blocks")
	}
	if l.BlockAddr(7, 7) == l.BlockAddr(8, 7) {
		t.Fatal("adjacent tiles share a block")
	}
	// Offsets distinct within a tile and 4-byte aligned.
	seen := map[int]bool{}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			off := l.Offset(x, y)
			if off%4 != 0 || off < 0 || off >= 256 || seen[off] {
				t.Fatalf("bad offset %d at (%d,%d)", off, x, y)
			}
			seen[off] = true
		}
	}
	// BlockIndex covers the whole surface injectively per tile.
	if l.BlockIndex(63, 47) != 8*6-1 {
		t.Fatalf("last block index: %d", l.BlockIndex(63, 47))
	}
}

func TestFlowCreditAccounting(t *testing.T) {
	sim := core.NewSimulator(0)
	f := pFlow(sim, "a", "b", "x", 2, 1, 0, 3)
	var ids core.IDSource
	mk := func() core.Dynamic {
		return &ShadedVertex{DynObject: core.DynObject{ID: ids.Next()}}
	}
	if !f.CanSend(0, 2) {
		t.Fatal("fresh flow refuses credits")
	}
	// A burst above the wire bandwidth is refused even with credits.
	if f.CanSend(0, 3) {
		t.Fatal("bandwidth not limiting burst size")
	}
	f.Send(0, mk())
	f.Send(0, mk())
	if f.CanSend(0, 1) {
		t.Fatal("bandwidth not enforced by CanSend")
	}
	// Next cycle the wire is free but only 1 credit remains.
	if !f.CanSend(1, 1) || f.CanSend(1, 2) {
		t.Fatal("credit accounting wrong")
	}
	f.Send(1, mk())
	if f.CanSend(2, 1) {
		t.Fatal("credits not exhausted")
	}
	// Releases are deferred: they fold into the producer-visible
	// credit pool at the cycle barrier, not the instant Release runs
	// (that is what makes box clocking order irrelevant).
	f.Release(2)
	if f.CanSend(2, 1) {
		t.Fatal("release visible before the cycle barrier")
	}
	f.EndCycle(2)
	if !f.CanSend(2, 2) {
		t.Fatal("release did not restore credits after the barrier")
	}
}

func TestEarlyZDecision(t *testing.T) {
	plain := isa.MustAssemble(isa.FragmentProgram, "p", "MOV o0, v1\nEND")
	killer := isa.MustAssemble(isa.FragmentProgram, "k", "KIL v1\nMOV o0, v1\nEND")
	depthW := isa.MustAssemble(isa.FragmentProgram, "d", "MOV o0, v1\nMOV o1.x, v0.z\nEND")
	if !(&DrawState{FragmentProg: plain}).EarlyZAllowed() {
		t.Fatal("plain program should allow early Z")
	}
	if (&DrawState{FragmentProg: killer}).EarlyZAllowed() {
		t.Fatal("KIL program must disable early Z")
	}
	if (&DrawState{FragmentProg: depthW}).EarlyZAllowed() {
		t.Fatal("depth-writing program must disable early Z")
	}
}

func TestHZDecisionForShadowVolumes(t *testing.T) {
	// Stencil ops that update on depth fail must disable HZ even
	// with a LESS depth test (the shadow volume correctness rule).
	cfg := BaselineUnified()
	p, err := New(cfg, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testState(t, p, 3)
	st.Stencil.Enabled = true
	st.Stencil.DPFail = 4 // StIncr
	b := p.CP.newBatch(st)
	if b.HZ {
		t.Fatal("HZ enabled for depth-fail stencil updates")
	}
	st2, _ := testState(t, p, 3)
	b2 := p.CP.newBatch(st2)
	if !b2.HZ {
		t.Fatal("HZ disabled for a plain LESS depth test")
	}
}

func TestPipelineString(t *testing.T) {
	p, err := New(BaselineUnified(), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	s := fmt.Sprintf("%v", p)
	if s == "" {
		t.Fatal("empty description")
	}
}

// A vertex that completes a triangle waits while triOut has no room.
// Waiting must be free: the triangle is built when it is sent, so a
// stalled cycle allocates nothing and draws no object ID (a doom3
// frame stalls here for thousands of cycles per triangle emitted).
func TestPrimAssemblyStallBuildsNothing(t *testing.T) {
	for _, mode := range []PrimMode{Triangles, TriangleStrip, TriangleFan, Quads, QuadStrip} {
		sim := core.NewSimulator(0)
		in := pFlow(sim, "src", "PrimAssembly", "Streamer.VtxOut", 1, 1, 0, 8)
		out := pFlow(sim, "PrimAssembly", "sink", "PA.TriOut", 1, 1, 0, 1)
		pa := NewPrimAssembly(sim, &pipePool{}, in, out)
		batch := &BatchState{State: &DrawState{Primitive: mode, Count: 8}}
		// Nothing drains the sink: the first triangle takes the only
		// credit and the next completing vertex stalls.
		cycle := int64(0)
		for seq := 0; cycle < 40; cycle++ {
			if seq < 8 && in.CanSend(cycle, 1) {
				in.Send(cycle, &ShadedVertex{DynObject: core.DynObject{ID: sim.IDs.Next()}, Batch: batch, Seq: seq})
				seq++
			}
			pa.Clock(cycle)
			sim.EndCycle(cycle)
		}
		if batch.TrisIn != 1 || batch.PADone {
			t.Fatalf("%v: %d triangles out, PADone=%v; want the box stalled behind its first triangle", mode, batch.TrisIn, batch.PADone)
		}
		idsBefore := sim.IDs.Next()
		allocs := testing.AllocsPerRun(100, func() {
			pa.Clock(cycle)
			sim.EndCycle(cycle)
			cycle++
		})
		if ids := sim.IDs.Next() - idsBefore - 1; allocs != 0 || ids != 0 {
			t.Errorf("%v: a stalled cycle cost %.0f allocations and %d object IDs, want none", mode, allocs, ids)
		}
	}
}

// attrLinesMapModel is Streamer.attrLines as it was at 626197c: a map
// and a fresh slice per vertex.
func attrLinesMapModel(st *DrawState, idx uint32) []uint32 {
	seen := map[uint32]bool{}
	var lines []uint32
	for slot := range st.Attribs {
		a := &st.Attribs[slot]
		if !a.Enabled {
			continue
		}
		base := a.Addr + idx*a.Stride
		end := base + uint32(a.Size*4) - 1
		for line := base &^ 63; line <= end&^63; line += 64 {
			if !seen[line] {
				seen[line] = true
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// The Streamer keeps a vertex's fetch lines in a scratch slice with a
// linear search for duplicates: the same lines in the same order as the
// map gave, over interleaved, separate, overlapping and line-straddling
// attribute layouts, vertex after vertex in one scratch, allocating
// nothing once the scratch has grown.
func TestAttrLinesMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := &Streamer{}
	for layout := 0; layout < 200; layout++ {
		st := &DrawState{}
		interleaved := layout%2 == 0
		buf, stride := uint32(rng.Intn(1<<16))*4, uint32(16+rng.Intn(40))*4
		for slot := range st.Attribs {
			a := &st.Attribs[slot]
			a.Enabled = rng.Intn(3) > 0
			a.Size = 1 + rng.Intn(4)
			if interleaved { // one buffer, offsets within a shared stride
				a.Stride = stride
				a.Addr = buf + uint32(rng.Intn(24))*4
			} else {
				a.Stride = uint32(a.Size+rng.Intn(3)) * 4
				a.Addr = uint32(rng.Intn(1<<16)) * 4
			}
		}
		s.batch = &BatchState{State: st}
		for v := 0; v < 50; v++ {
			idx := uint32(rng.Intn(4096))
			s.fetchSt.lines = s.attrLines(idx)
			if want := attrLinesMapModel(st, idx); !slices.Equal(s.fetchSt.lines, want) {
				t.Fatalf("layout %d vertex %d: lines %#x, map model %#x", layout, idx, s.fetchSt.lines, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.fetchSt.lines = s.attrLines(17) }); n != 0 {
		t.Errorf("attrLines allocates %v times per vertex", n)
	}
}
