package gpu_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"attila/internal/emu/fragemu"
	"attila/internal/gl"
	"attila/internal/gpu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// retireScene draws one frame per place a batch can finish retiring,
// each batch alone in the pipeline between a clear or a swap, so that
// the command processor, parked until the batch is done, has nothing
// but that batch's announcement to wake it: the last triangle rejected
// by the Clipper, culled by TriangleSetup, or traversed by the
// FragmentGenerator without a covered fragment; the last quad culled by
// HierarchicalZ or ZStencil, killed in the FragmentFIFO, or written by
// ColorWrite; and, for the end of the geometry phase, a second draw
// waiting behind the first.
func retireScene(t *testing.T, w, h int) (*gpu.Pipeline, []gpu.Command) {
	t.Helper()
	cfg := gpu.BaselineUnified()
	cfg.WatchdogWindow = 1_000_000 // a missed wake fails here, not at the cycle limit
	pipe, err := gpu.New(cfg, w, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := gl.NewContext(pipe, w, h)
	red := vmath.Vec4{1, 0, 0, 1}
	draw := func(color vmath.Vec4, xy ...float32) { // window coordinates, z in NDC
		var data []byte
		for i := 0; i < len(xy); i += 3 {
			v := [7]float32{xy[i]/float32(w)*2 - 1, xy[i+1]/float32(h)*2 - 1, xy[i+2],
				color[0], color[1], color[2], color[3]}
			for _, f := range v {
				data = binary.LittleEndian.AppendUint32(data, math.Float32bits(f))
			}
		}
		buf := ctx.GenBuffer(len(data))
		ctx.BufferData(buf, 0, data)
		ctx.VertexAttribPointer(isa.AttrPos, buf, 0, 28, 3)
		ctx.VertexAttribPointer(isa.AttrColor, buf, 12, 28, 4)
		ctx.DrawArrays(gpu.Triangles, 0, len(xy)/3)
	}
	W, H := float32(w), float32(h)
	screen := func(z float32) []float32 { return []float32{0, 0, z, W, 0, z, W, H, z, 0, 0, z, W, H, z, 0, H, z} }
	ctx.Enable(gl.CapDepthTest)
	ctx.Clear(gl.ColorBufferBit | gl.DepthBufferBit)

	draw(red, 2*W, 0, 0, 3*W, 0, 0, 2*W, H, 0) // Clipper: beyond the right plane
	ctx.SwapBuffers()
	ctx.Enable(gl.CapCullFace)
	draw(red, 0, 0, 0, 0, H, 0, W, 0, 0) // TriangleSetup: clockwise, culled
	ctx.Disable(gl.CapCullFace)
	ctx.SwapBuffers()
	draw(red, 10.1, 10.1, 0, 10.4, 10.1, 0, 10.1, 10.4, 0) // FragmentGenerator: inside one pixel, off its centre
	ctx.SwapBuffers()
	ctx.DepthFunc(fragemu.CmpGreater) // ZStencil: nothing is farther than the cleared depth
	draw(red, screen(0)...)
	ctx.DepthFunc(fragemu.CmpLess)
	ctx.SwapBuffers()
	ctx.Enable(gl.CapAlphaTest) // FragmentFIFO: every fragment killed
	ctx.AlphaFunc(fragemu.CmpGEqual, 0.5)
	draw(vmath.Vec4{1, 0, 0, 0.25}, screen(0)...)
	ctx.Disable(gl.CapAlphaTest)
	ctx.SwapBuffers()
	draw(red, screen(-0.5)...) // ColorWrite; the swap's Z flush primes the HZ buffer
	ctx.SwapBuffers()
	draw(red, screen(0.5)...) // HierarchicalZ: every tile behind it
	ctx.SwapBuffers()
	draw(red, 0, 0, -0.9, W, 0, -0.9, 0, H, -0.9) // PrimAssembly: the next draw waits for its geometry phase
	draw(red, W, H, -0.9, 0, H, -0.9, W, 0, -0.9)
	ctx.SwapBuffers()
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
	return pipe, ctx.Commands()
}

// Every place a batch can finish retiring wakes whoever waits for it:
// the scene ends each of its batches at another one, and must run to
// the cycle, frame and statistic as it does with every box clocked
// every cycle (a missed wake either never comes — the watchdog — or
// comes with a later retirement, and the cycles differ).
func TestEveryRetirementWakes(t *testing.T) {
	type outputs struct {
		cycles  int64
		frames  [][]byte
		summary bytes.Buffer
	}
	run := func(allAwake bool) *outputs {
		pipe, cmds := retireScene(t, 64, 48)
		if allAwake {
			pipe.Sim.SetClockGate(everyBox{})
		}
		if err := pipe.Run(cmds, 50_000_000); err != nil {
			t.Fatalf("allAwake=%v: %v", allAwake, err)
		}
		out := &outputs{cycles: pipe.Cycles()}
		for _, f := range pipe.Frames() {
			out.frames = append(out.frames, f.Pix)
		}
		if err := pipe.DumpStats(&out.summary); err != nil {
			t.Fatal(err)
		}
		return out
	}
	parked, awake := run(false), run(true)
	if parked.cycles != awake.cycles {
		t.Errorf("%d cycles, %d with every box clocked", parked.cycles, awake.cycles)
	}
	if len(parked.frames) != 8 || len(awake.frames) != 8 {
		t.Fatalf("%d and %d frames, want 8", len(parked.frames), len(awake.frames))
	}
	for i := range parked.frames {
		if !bytes.Equal(parked.frames[i], awake.frames[i]) {
			t.Errorf("frame %d differs with every box clocked", i)
		}
	}
	if !bytes.Equal(parked.summary.Bytes(), awake.summary.Bytes()) {
		t.Error("statistics summary differs with every box clocked")
	}
}
