package shaderemu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"attila/internal/isa"
	"attila/internal/vmath"
)

func runProgram(t *testing.T, kind isa.ProgramKind, src string, consts []vmath.Vec4,
	inputs [isa.MaxInputs]vmath.Vec4, sample SampleFunc) *Thread {
	t.Helper()
	prog, err := isa.Assemble(kind, "test", src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, consts)
	th := e.NewThread()
	th.Active[0] = true
	th.In[0] = inputs
	if _, err := e.Run(th, sample); err != nil {
		t.Fatal(err)
	}
	return th
}

func vecNear(a, b vmath.Vec4, eps float64) bool {
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > eps {
			return false
		}
	}
	return true
}

func TestBasicALU(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{1, 2, 3, 4}
	in[1] = vmath.Vec4{10, 20, 30, 40}
	th := runProgram(t, isa.VertexProgram, `
ADD r0, v0, v1
MUL r1, v0, v1
MAD r2, v0, v1, r0
SUB r3, v1, v0
MOV o0, r2
MOV o1, r3
END`, nil, in, nil)
	if th.Out[0][0] != (vmath.Vec4{21, 62, 123, 204}) {
		t.Fatalf("MAD result: %v", th.Out[0][0])
	}
	if th.Out[0][1] != (vmath.Vec4{9, 18, 27, 36}) {
		t.Fatalf("SUB result: %v", th.Out[0][1])
	}
}

func TestDotProducts(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{1, 2, 3, 4}
	in[1] = vmath.Vec4{5, 6, 7, 8}
	th := runProgram(t, isa.VertexProgram, `
DP3 o0.x, v0, v1
DP4 o0.y, v0, v1
DPH o0.z, v0, v1
END`, nil, in, nil)
	got := th.Out[0][0]
	if got[0] != 38 || got[1] != 70 || got[2] != 46 {
		t.Fatalf("dots: %v", got)
	}
}

func TestSwizzleNegateSaturate(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{0.25, 0.5, 2, -1}
	th := runProgram(t, isa.VertexProgram, `
MOV r0, -v0.wzyx
MOV_SAT o0, v0
MOV o1, r0
END`, nil, in, nil)
	if th.Out[0][0] != (vmath.Vec4{0.25, 0.5, 1, 0}) {
		t.Fatalf("saturate: %v", th.Out[0][0])
	}
	if th.Out[0][1] != (vmath.Vec4{1, -2, -0.5, -0.25}) {
		t.Fatalf("swizzle+negate: %v", th.Out[0][1])
	}
}

func TestWriteMaskPreservesComponents(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{9, 9, 9, 9}
	th := runProgram(t, isa.VertexProgram, `
MOV r0, v0
MOV r0.yw, -v0
MOV o0, r0
END`, nil, in, nil)
	if th.Out[0][0] != (vmath.Vec4{9, -9, 9, -9}) {
		t.Fatalf("masked write: %v", th.Out[0][0])
	}
}

func TestScalarOps(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{4, 8, 2, 3}
	th := runProgram(t, isa.VertexProgram, `
RCP o0.x, v0.x
RSQ o0.y, v0.x
EX2 o0.z, v0.z
LG2 o0.w, v0.y
POW o1.x, v0.z, v0.w
SIN o1.y, v0.x
COS o1.z, v0.x
END`, nil, in, nil)
	got := th.Out[0][0]
	want := vmath.Vec4{0.25, 0.5, 4, 3}
	if !vecNear(got, want, 1e-5) {
		t.Fatalf("scalars: got %v want %v", got, want)
	}
	if math.Abs(float64(th.Out[0][1][0]-8)) > 1e-4 {
		t.Fatalf("POW: %v", th.Out[0][1][0])
	}
	if math.Abs(float64(th.Out[0][1][1])-math.Sin(4)) > 1e-5 {
		t.Fatalf("SIN: %v", th.Out[0][1][1])
	}
	if math.Abs(float64(th.Out[0][1][2])-math.Cos(4)) > 1e-5 {
		t.Fatalf("COS: %v", th.Out[0][1][2])
	}
}

func TestCompareSelectOps(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{-1, 2, 0, 5}
	in[1] = vmath.Vec4{1, 1, 1, 1}
	in[2] = vmath.Vec4{7, 7, 7, 7}
	th := runProgram(t, isa.VertexProgram, `
SLT o0, v0, v1
SGE o1, v0, v1
CMP o2, v0, v1, v2
MIN o3, v0, v1
MAX o4, v0, v1
END`, nil, in, nil)
	if th.Out[0][0] != (vmath.Vec4{1, 0, 1, 0}) {
		t.Fatalf("SLT: %v", th.Out[0][0])
	}
	if th.Out[0][1] != (vmath.Vec4{0, 1, 0, 1}) {
		t.Fatalf("SGE: %v", th.Out[0][1])
	}
	if th.Out[0][2] != (vmath.Vec4{1, 7, 7, 7}) {
		t.Fatalf("CMP: %v", th.Out[0][2])
	}
	if th.Out[0][3] != (vmath.Vec4{-1, 1, 0, 1}) {
		t.Fatalf("MIN: %v", th.Out[0][3])
	}
	if th.Out[0][4] != (vmath.Vec4{1, 2, 1, 5}) {
		t.Fatalf("MAX: %v", th.Out[0][4])
	}
}

func TestFrcFlrAbsLrp(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{1.25, -1.25, 3.75, -0.5}
	in[1] = vmath.Vec4{0.5, 0.5, 0.5, 0.5}
	in[2] = vmath.Vec4{0, 0, 0, 0}
	in[3] = vmath.Vec4{10, 20, 30, 40}
	th := runProgram(t, isa.VertexProgram, `
FRC o0, v0
FLR o1, v0
ABS o2, v0
LRP o3, v1, v2, v3
END`, nil, in, nil)
	if !vecNear(th.Out[0][0], vmath.Vec4{0.25, 0.75, 0.75, 0.5}, 1e-6) {
		t.Fatalf("FRC: %v", th.Out[0][0])
	}
	if th.Out[0][1] != (vmath.Vec4{1, -2, 3, -1}) {
		t.Fatalf("FLR: %v", th.Out[0][1])
	}
	if th.Out[0][2] != (vmath.Vec4{1.25, 1.25, 3.75, 0.5}) {
		t.Fatalf("ABS: %v", th.Out[0][2])
	}
	if !vecNear(th.Out[0][3], vmath.Vec4{5, 10, 15, 20}, 1e-5) {
		t.Fatalf("LRP: %v", th.Out[0][3])
	}
}

func TestLitAndDst(t *testing.T) {
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{0.5, 0.25, 0, 2}
	in[1] = vmath.Vec4{1, 3, 5, 7}
	in[2] = vmath.Vec4{2, 4, 6, 8}
	th := runProgram(t, isa.VertexProgram, `
LIT o0, v0
DST o1, v1, v2
END`, nil, in, nil)
	want := vmath.Vec4{1, 0.5, 0.0625, 1}
	if !vecNear(th.Out[0][0], want, 1e-5) {
		t.Fatalf("LIT: got %v want %v", th.Out[0][0], want)
	}
	if th.Out[0][1] != (vmath.Vec4{1, 12, 5, 8}) {
		t.Fatalf("DST: %v", th.Out[0][1])
	}
	// Negative diffuse: spec must be 0.
	in[0] = vmath.Vec4{-0.5, 0.25, 0, 2}
	th = runProgram(t, isa.VertexProgram, "LIT o0, v0\nEND", nil, in, nil)
	if th.Out[0][0] != (vmath.Vec4{1, 0, 0, 1}) {
		t.Fatalf("LIT negative: %v", th.Out[0][0])
	}
}

func TestConstantBank(t *testing.T) {
	consts := []vmath.Vec4{{1, 0, 0, 0}, {0, 2, 0, 0}}
	var in [isa.MaxInputs]vmath.Vec4
	in[0] = vmath.Vec4{3, 3, 3, 3}
	th := runProgram(t, isa.VertexProgram, `
MUL r0, v0, c0
MAD o0, v0, c1, r0
END`, consts, in, nil)
	if th.Out[0][0] != (vmath.Vec4{3, 6, 0, 0}) {
		t.Fatalf("consts: %v", th.Out[0][0])
	}
}

func TestKILKillsNegativeLanes(t *testing.T) {
	prog := isa.MustAssemble(isa.FragmentProgram, "kil", `
KIL v0
MOV o0, v1
END`)
	e := New(prog, nil)
	th := e.NewThread()
	for l := 0; l < Lanes; l++ {
		th.Active[l] = true
		th.In[l][1] = vmath.Vec4{1, 1, 1, 1}
	}
	th.In[0][0] = vmath.Vec4{1, 1, 1, 1}  // survives
	th.In[1][0] = vmath.Vec4{-1, 1, 1, 1} // killed (x<0)
	th.In[2][0] = vmath.Vec4{1, 1, 1, -2} // killed (w<0)
	th.In[3][0] = vmath.Vec4{0, 0, 0, 0}  // survives (not strictly negative)
	if _, err := e.Run(th, nil); err != nil {
		t.Fatal(err)
	}
	want := [Lanes]bool{false, true, true, false}
	if th.Killed != want {
		t.Fatalf("killed lanes: %v", th.Killed)
	}
}

func TestTextureRequestAndCompletion(t *testing.T) {
	prog := isa.MustAssemble(isa.FragmentProgram, "tex", `
TEX r0, v4, t3, 2D
MUL o0, r0, v1
END`)
	e := New(prog, nil)
	th := e.NewThread()
	for l := 0; l < Lanes; l++ {
		th.Active[l] = true
		th.In[l][4] = vmath.Vec4{float32(l), 0.5, 0, 0}
		th.In[l][1] = vmath.Vec4{2, 2, 2, 2}
	}
	var captured *TexRequest
	sample := func(req *TexRequest) [Lanes]vmath.Vec4 {
		captured = req
		var out [Lanes]vmath.Vec4
		for l := range out {
			out[l] = vmath.Vec4{req.Coord[l][0], 0, 0, 1}
		}
		return out
	}
	if _, err := e.Run(th, sample); err != nil {
		t.Fatal(err)
	}
	if captured == nil || captured.Sampler != 3 || captured.Target != isa.Tex2D {
		t.Fatalf("request: %+v", captured)
	}
	if th.Out[2][0] != (vmath.Vec4{4, 0, 0, 2}) {
		t.Fatalf("lane 2 output: %v", th.Out[2][0])
	}
}

func TestTexModeMapping(t *testing.T) {
	for _, tc := range []struct {
		op   string
		mode TexMode
	}{{"TEX", TexModeNormal}, {"TXB", TexModeBias}, {"TXP", TexModeProj}, {"TXL", TexModeLod}} {
		prog := isa.MustAssemble(isa.FragmentProgram, "t", tc.op+" r0, v4, t0, 2D\nEND")
		e := New(prog, nil)
		th := e.NewThread()
		th.Active[0] = true
		e.Step(th)
		if th.Blocked == nil || th.Blocked.Mode != tc.mode {
			t.Fatalf("%s: mode %v", tc.op, th.Blocked)
		}
	}
}

func TestStepPanicsOnBlockedThread(t *testing.T) {
	prog := isa.MustAssemble(isa.FragmentProgram, "t", "TEX r0, v4, t0, 2D\nEND")
	e := New(prog, nil)
	th := e.NewThread()
	th.Active[0] = true
	e.Step(th)
	defer func() {
		if recover() == nil {
			t.Fatal("Step on blocked thread did not panic")
		}
	}()
	e.Step(th)
}

func TestInactiveLanesUntouched(t *testing.T) {
	prog := isa.MustAssemble(isa.VertexProgram, "t", "MOV o0, v0\nEND")
	e := New(prog, nil)
	th := e.NewThread()
	th.Active[0] = true
	th.In[0][0] = vmath.Vec4{5, 5, 5, 5}
	th.In[1][0] = vmath.Vec4{9, 9, 9, 9} // inactive lane
	if _, err := e.Run(th, nil); err != nil {
		t.Fatal(err)
	}
	if th.Out[1][0] != (vmath.Vec4{}) {
		t.Fatalf("inactive lane written: %v", th.Out[1][0])
	}
}

// A shader unit reuses one thread per slot across programs, with Reset
// in between; the reference renderer takes a fresh one each time. A
// register component the second program leaves alone must read 0 either
// way, not the first program's value.
func TestResetMatchesNewThread(t *testing.T) {
	first := isa.MustAssemble(isa.VertexProgram, "first", "MOV o0, v0\nMOV o1, v1\nMOV r2, v1\nEND")
	second := isa.MustAssemble(isa.VertexProgram, "second", "MOV o0, v0\nMOV o1.xyz, v0\nMOV r2.x, v0\nEND")
	run := func(e *Emulator, th *Thread) {
		th.Active[0] = true
		th.In[0][0], th.In[0][1] = vmath.Vec4{1, 2, 3, 4}, vmath.Vec4{5, 6, 7, 8}
		if _, err := e.Run(th, nil); err != nil {
			t.Fatal(err)
		}
	}
	e1, e2 := New(first, nil), New(second, nil)
	reused := e1.NewThread()
	run(e1, reused)
	reused.Reset(second.TempsUsed())
	run(e2, reused)
	fresh := e2.NewThread()
	run(e2, fresh)
	if reused.Out != fresh.Out {
		t.Fatalf("outputs after Reset: o1 %v, a fresh thread's %v", reused.Out[0][1], fresh.Out[0][1])
	}
	for i := range fresh.Temp {
		if reused.Temp[i] != fresh.Temp[i] {
			t.Fatalf("r%d after Reset: %v, a fresh thread's %v", i, reused.Temp[i], fresh.Temp[i])
		}
	}
}

// Property: MAD r, a, b, c == MUL t, a, b; ADD r, t, c for all inputs.
func TestMADEquivalenceProperty(t *testing.T) {
	madProg := isa.MustAssemble(isa.VertexProgram, "mad", "MAD o0, v0, v1, v2\nEND")
	mulAdd := isa.MustAssemble(isa.VertexProgram, "muladd", "MUL r0, v0, v1\nADD o0, r0, v2\nEND")
	f := func(a, b, c [4]float32) bool {
		em1 := New(madProg, nil)
		em2 := New(mulAdd, nil)
		t1, t2 := em1.NewThread(), em2.NewThread()
		t1.Active[0], t2.Active[0] = true, true
		t1.In[0][0], t1.In[0][1], t1.In[0][2] = a, b, c
		t2.In[0][0], t2.In[0][1], t2.In[0][2] = a, b, c
		if _, err := em1.Run(t1, nil); err != nil {
			return false
		}
		if _, err := em2.Run(t2, nil); err != nil {
			return false
		}
		got1, got2 := t1.Out[0][0], t2.Out[0][0]
		for i := 0; i < 4; i++ {
			x, y := got1[i], got2[i]
			if x != y && !(x != x && y != y) { // allow NaN==NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: swizzled read then MOV equals reading the permuted input.
func TestSwizzlePermutationProperty(t *testing.T) {
	f := func(v [4]float32, xi, yi, zi, wi uint8) bool {
		x, y, z, w := int(xi%4), int(yi%4), int(zi%4), int(wi%4)
		sw := isa.MakeSwizzle(x, y, z, w)
		prog := &isa.Program{Kind: isa.VertexProgram, Name: "swz", Instr: []isa.Instruction{
			{Op: isa.MOV, Dst: isa.Dst(isa.BankOutput, 0), Src: [3]isa.SrcOperand{isa.Src(isa.BankInput, 0).Swz(sw)}},
			{Op: isa.END},
		}}
		if err := prog.Validate(); err != nil {
			return false
		}
		e := New(prog, nil)
		th := e.NewThread()
		th.Active[0] = true
		th.In[0][0] = v
		if _, err := e.Run(th, nil); err != nil {
			return false
		}
		want := vmath.Vec4{v[x], v[y], v[z], v[w]}
		got := th.Out[0][0]
		for i := 0; i < 4; i++ {
			if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportsStepCount(t *testing.T) {
	prog := isa.MustAssemble(isa.VertexProgram, "t", "MOV r0, v0\nMOV o0, r0\nEND")
	e := New(prog, nil)
	th := e.NewThread()
	th.Active[0] = true
	steps, err := e.Run(th, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps: %d", steps)
	}
}
