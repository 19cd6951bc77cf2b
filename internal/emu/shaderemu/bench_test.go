package shaderemu_test

import (
	"math/rand"
	"testing"

	"attila/internal/emu/shaderemu"
	"attila/internal/gpu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// BenchmarkStep times Step, and CompleteTexture where the program
// samples, on the three program shapes the benchmark's scenes run: the
// shader-alu scene's branch-free ALU program, and the ut2004 terrain's
// driver-generated fixed-function vertex program and two-texture
// fragment program. One run is Reset, four active lanes, Step to END;
// each reports host ns per instruction.
//
//	go test -run '^$' -bench BenchmarkStep -count 5 ./internal/emu/shaderemu
func BenchmarkStep(b *testing.B) {
	terrain := texturedDraw(b)
	for _, bc := range []struct {
		name   string
		prog   *isa.Program
		consts []vmath.Vec4
	}{
		{"shader-alu", aluProgram(), []vmath.Vec4{{3, 2.4, -1.9, -1.2}, {4, 0.25, 1, 0}}},
		{"ff-vertex", terrain.VertexProg, terrain.VertConsts},
		{"ff-fragment", terrain.FragmentProg, terrain.FragConsts},
	} {
		b.Run(bc.name, func(b *testing.B) {
			emu := shaderemu.New(bc.prog, bc.consts)
			th := emu.NewThread()
			rng := rand.New(rand.NewSource(1))
			for l := range th.In {
				for s := range th.In[l] {
					th.In[l][s] = vmath.Vec4{rng.Float32(), rng.Float32(), rng.Float32(), 1}
				}
			}
			texels := [shaderemu.Lanes]vmath.Vec4{{0.5, 0.4, 0.3, 1}, {0.6, 0.5, 0.4, 1}, {0.7, 0.6, 0.5, 1}, {0.8, 0.7, 0.6, 1}}
			instrs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Reset(bc.prog.TempsUsed())
				th.Active = [shaderemu.Lanes]bool{true, true, true, true}
				for !th.Done {
					emu.Step(th)
					instrs++
					if th.Blocked != nil {
						emu.CompleteTexture(th, texels)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// texturedDraw returns the ut2004 draw whose fragment program samples
// the most textures, as bench/kernels.go picks it.
func texturedDraw(b *testing.B) *gpu.DrawState {
	var best *gpu.DrawState
	bestTex := -1
	for _, d := range draws(b, "ut2004") {
		n := 0
		for _, in := range d.FragmentProg.Instr {
			if in.Op.Info().Texture {
				n++
			}
		}
		if n > bestTex {
			best, bestTex = d, n
		}
	}
	if best == nil {
		b.Fatal("ut2004 has no draw")
	}
	return best
}
