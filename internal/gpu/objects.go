package gpu

import (
	"attila/internal/core"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/rastemu"
	"attila/internal/emu/shaderemu"
	"attila/internal/emu/texemu"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/vmath"
)

// PrimMode is an OpenGL primitive assembly mode; the paper's pipeline
// supports triangle lists, strips and fans plus quad lists and strips
// (quads are assembled as two triangles).
type PrimMode uint8

// Primitive modes.
const (
	Triangles PrimMode = iota
	TriangleStrip
	TriangleFan
	Quads
	QuadStrip
)

// String names the mode.
func (m PrimMode) String() string {
	switch m {
	case Triangles:
		return "triangles"
	case TriangleStrip:
		return "tristrip"
	case TriangleFan:
		return "trifan"
	case Quads:
		return "quads"
	case QuadStrip:
		return "quadstrip"
	}
	return "prim?"
}

// AttribBinding describes one vertex input attribute: either a
// constant value or an array in GPU memory of Size float32 components
// per vertex at the given stride.
type AttribBinding struct {
	Enabled bool
	Const   vmath.Vec4 // used when not Enabled
	Addr    uint32
	Stride  uint32
	Size    int // components 1..4
}

// DrawState is the complete render-state snapshot captured with each
// draw command, so state changes pipeline freely with batch rendering
// (paper §2.2 command processor).
type DrawState struct {
	VertexProg   *isa.Program
	FragmentProg *isa.Program
	VertConsts   []vmath.Vec4
	FragConsts   []vmath.Vec4

	Viewport       rastemu.Viewport
	ScissorEnabled bool
	ScissorX       int
	ScissorY       int
	ScissorW       int
	ScissorH       int
	CullFront      bool
	CullBack       bool

	Depth   fragemu.DepthState
	Stencil fragemu.StencilState
	// TwoSidedStencil applies StencilBack to back-facing triangles
	// (the paper lists double-sided stencil as future work; it lets
	// shadow volumes render in a single pass).
	TwoSidedStencil bool
	StencilBack     fragemu.StencilState
	Blend           fragemu.BlendState
	ColorMask       [4]bool

	Textures [16]*texemu.Texture

	Attribs   [isa.MaxInputs]AttribBinding
	IndexAddr uint32 // 0 means sequential indices
	IndexSize int    // bytes per index (2 or 4)
	First     int    // first index/vertex
	Count     int    // vertices in the batch
	Primitive PrimMode
}

// EarlyZAllowed reports whether Z and stencil may run before shading
// for this state: the fragment program must not modify depth and must
// not kill fragments (the alpha-test replacement), per §2.1.
func (s *DrawState) EarlyZAllowed() bool {
	if s.FragmentProg == nil {
		return true
	}
	if s.FragmentProg.HasKill() {
		return false
	}
	return s.FragmentProg.Outputs()&(1<<isa.FragOutDepth) == 0
}

// InterpAttrs returns the bitmask of fragment input attributes the
// interpolator must produce (the fragment program's inputs).
func (s *DrawState) InterpAttrs() uint32 {
	if s.FragmentProg == nil {
		return 0
	}
	return s.FragmentProg.Inputs()
}

// Command is one entry of the command stream the CPU (trace player)
// feeds to the Command Processor.
type Command interface{ isCommand() }

// CmdBufferWrite uploads data from system memory into GPU memory,
// consuming system bus and GDDR bandwidth.
type CmdBufferWrite struct {
	Addr uint32
	Data []byte
}

// CmdDraw renders one batch with a full state snapshot.
type CmdDraw struct {
	State *DrawState
}

// CmdClearColor fast-clears the color buffer.
type CmdClearColor struct {
	Value [4]byte
}

// CmdClearZS fast-clears the depth-stencil buffer.
type CmdClearZS struct {
	Depth   float32
	Stencil uint8
}

// CmdSwap finishes the frame: caches are flushed and the DAC dumps
// the color buffer.
type CmdSwap struct{}

// CmdSetRenderTarget redirects color writes to an offscreen surface
// (render to texture — an RGBA8 texture level shares the framebuffer
// block layout, so its memory doubles as a color buffer). Default
// restores the window's back buffer. The command processor drains the
// pipeline, flushes the color caches and invalidates the texture
// caches at the switch so subsequent sampling sees the rendered data.
type CmdSetRenderTarget struct {
	Default bool
	Target  SurfaceLayout
}

func (CmdBufferWrite) isCommand()     {}
func (CmdDraw) isCommand()            {}
func (CmdClearColor) isCommand()      {}
func (CmdClearZS) isCommand()         {}
func (CmdSwap) isCommand()            {}
func (CmdSetRenderTarget) isCommand() {}

// BatchState tracks one draw through the pipeline. All boxes share
// the pointer; counters retire the batch when every vertex, triangle
// and fragment quad is accounted for. The counters are mutated by the
// fixed-pipeline boxes only; shader and texture units treat the batch
// as read-only (the emulators are created eagerly by the command
// processor).
type BatchState struct {
	core.DynObject
	State *DrawState

	// Derived per-batch decisions.
	EarlyZ bool // Z/stencil before shading on this batch
	HZ     bool // Hierarchical Z test usable

	// Vertex accounting.
	VtxIssued    int // streamer issued (cache hits + shader returns)
	VtxConsumed  int // primitive assembly consumed
	StreamerDone bool
	PADone       bool // primitive assembly consumed the whole batch

	// Triangle accounting.
	TrisIn      int // emitted by primitive assembly
	TrisRetired int // rejected by clip/setup or fully traversed

	// Quad accounting.
	QuadsIn      int // emitted by the fragment generator
	QuadsRetired int // culled or written to the framebuffer

	ShadedQuads   int
	ShadedVerts   int
	KilledQuads   int
	HZCulledQuads int
	ZCulledQuads  int

	// Per-batch shader emulators, built with the batch and shared
	// read-only by all threads of the batch.
	fragEmu *shaderemu.Emulator
	vtxEmu  *shaderemu.Emulator
	// A thread of the batch has run the program through END on the clock
	// goroutine without a fault: from then on its long segments may run
	// on the helper (ShaderUnit.dispatch).
	fragClean, vtxClean bool

	// wakes is who the batch announces its retirement to; nil for a
	// batch built outside a command processor.
	wakes *batchWakes
}

// batchWakes is who polls batch retirement, shared by every batch of
// one command processor: the command processor itself (GeomDone and
// Done) and triangle setup (Done, to hand the fragment phase on).
type batchWakes struct{ cp, setup *core.BoxBase }

// GeomDone reports the end of the geometry phase (through primitive
// assembly), the point at which the next batch may enter it.
func (b *BatchState) GeomDone() bool { return b.StreamerDone && b.PADone }

// Done reports full retirement of the batch.
func (b *BatchState) Done() bool {
	return b.GeomDone() &&
		b.TrisRetired == b.TrisIn &&
		b.QuadsRetired == b.QuadsIn
}

// The four methods below are the only writers of the retirement
// counters and phase flags, and each announces the turn it makes: the
// command processor is woken when GeomDone or Done turns true, triangle
// setup when Done does — not on every retirement, or setup would be
// woken for each quad of the batch it waits behind.

// retireTris retires n triangles: rejected by clip or setup, or fully
// traversed.
func (b *BatchState) retireTris(n int) {
	b.TrisRetired += n
	b.retired()
}

// retireQuads retires n quads: culled, killed or written.
func (b *BatchState) retireQuads(n int) {
	b.QuadsRetired += n
	b.retired()
}

// retired announces Done, which a retirement can only turn true: the
// count it moved was short of its total before.
func (b *BatchState) retired() {
	if b.wakes != nil && b.Done() {
		b.wakes.cp.Wake()
		b.wakes.setup.Wake()
	}
}

// streamed marks every vertex committed by the streamer.
func (b *BatchState) streamed() {
	b.StreamerDone = true
	b.geomDone()
}

// assembled marks every vertex consumed by primitive assembly.
func (b *BatchState) assembled() {
	b.PADone = true
	b.geomDone()
}

// geomDone announces GeomDone, which the second of the two flags (each
// set once) turns true, and Done with it for a batch with nothing left
// downstream.
func (b *BatchState) geomDone() {
	if b.wakes == nil || !b.GeomDone() {
		return
	}
	b.wakes.cp.Wake()
	if b.Done() {
		b.wakes.setup.Wake()
	}
}

// SetupTri is a triangle after setup: the rasterizer equations plus
// the three shaded vertices' attributes for interpolation.
type SetupTri struct {
	core.DynObject
	Batch *BatchState
	Tri   rastemu.Triangle
	// Attr[slot][vertex] ordering is chosen for the interpolator's
	// access pattern.
	Attr [isa.MaxOutputs][3]vmath.Vec4
	// holders counts the FragmentGenerator and each live quad; the last
	// to let go recycles the triangle (pipePool.releaseTri).
	holders int
}

// Tile is an 8x8 fragment tile ("stamp" pair of the generator): the
// generator emits up to two per cycle. Quads lists the covered 2x2
// quads with per-fragment coverage and depth already evaluated; the
// generator points it into room, which holds a tile's most quads.
type Tile struct {
	core.DynObject
	Batch *BatchState
	X, Y  int
	Quads []*Quad
	// MinDepth is the conservative tile depth bound for HZ.
	MinDepth uint32
	room     [quadsPerTile]*Quad
}

// quadsPerTile is how many 2x2 quads an 8x8 tile holds.
const quadsPerTile = SurfaceTile * SurfaceTile / 4

// Quad is the 2x2 fragment work unit of the fragment pipeline
// (§2.2).
type Quad struct {
	core.DynObject
	Batch *BatchState
	Tri   *SetupTri
	X, Y  int // origin (even coordinates)
	// Per-fragment state; lane l covers pixel (X+l%2, Y+l/2).
	Mask  [4]bool // fragment alive
	Depth [4]uint32
	// In carries the interpolated fragment inputs from the
	// Interpolator to the FragmentFIFO's routing of the shaded quad,
	// and is nil outside that span (pipePool); Color carries the
	// shaded output color.
	In    *QuadInputs
	Color [4]vmath.Vec4
	ZDone bool // depth/stencil already performed (early Z)

	// srcFlow remembers which input flow carried the quad into the
	// consuming box so its credit is returned on retirement.
	srcFlow *Flow
}

// QuadInputs is the fragment inputs of a quad's four lanes.
type QuadInputs [4][isa.MaxInputs]vmath.Vec4

// Alive reports whether any fragment in the quad is still live.
func (q *Quad) Alive() bool {
	return q.Mask[0] || q.Mask[1] || q.Mask[2] || q.Mask[3]
}

// VtxGroup is a group of up to four vertices shaded as one thread in
// the unified model.
type VtxGroup struct {
	core.DynObject
	Batch *BatchState
	Seq   [4]int    // streamer sequence numbers
	Index [4]uint32 // original vertex indices (vertex cache keys)
	Count int
	In    [4][isa.MaxInputs]vmath.Vec4
	Out   [4][isa.MaxOutputs]vmath.Vec4
}

// shaderLanes is the number of shader inputs processed in lockstep
// per thread (one fragment quad or four vertices).
const shaderLanes = 4

// ShadedVertex is one post-shading vertex on its way to primitive
// assembly.
type ShadedVertex struct {
	core.DynObject
	Batch *BatchState
	Seq   int
	Out   [isa.MaxOutputs]vmath.Vec4
}

// TriWork is an assembled triangle flowing from primitive assembly
// through the clipper to setup. It carries its three vertices' outputs.
type TriWork struct {
	core.DynObject
	Batch *BatchState
	V     [3][isa.MaxOutputs]vmath.Vec4
}

// Flow pairs a signal with a credit count so producers observe
// consumer queue backpressure: Send consumes a credit, the consumer
// returns it with Release when the item leaves its input queue. Flow
// also tracks the signal's per-cycle bandwidth so producers can ask
// "may I send now" with CanSend instead of tripping the signal's
// bandwidth check.
//
// Released credits take effect at the end of the cycle, not
// immediately: Release accumulates into a consumer-side count that
// EndCycle folds into the producer-visible credit pool at the
// simulator's cycle barrier. This makes the credit protocol
// independent of box clocking order: a producer clocked after its
// consumer does not see same-cycle releases early.
// Flows built by the pipeline publish EndCycle through the simulator
// (core.Simulator.Publish): the barrier folds a flow only on a cycle
// it released credits. Flows built bare with NewFlow have no
// publication; their harness calls EndCycle itself every cycle.
type Flow struct {
	sig       *core.Signal
	cap       int               // total credits (consumer queue capacity)
	credits   int               // producer-visible pool (producer side)
	released  int               // returned this cycle, folded at the barrier (consumer side)
	pub       *core.Publication // schedules the fold; nil on a bare flow
	sentCycle int64             // producer side
	sentCount int
}

// NewFlow wraps a provided signal with capacity credits (typically
// the consumer's input queue size from Table 1).
func NewFlow(sig *core.Signal, capacity int) *Flow {
	return &Flow{sig: sig, cap: capacity, credits: capacity, sentCycle: -1}
}

// QueueStat reports the flow's credit occupancy from the producer's
// view: Occupied credits are held downstream (items on the wire or in
// the consumer's input queue). Occupied == Capacity in a deadlock
// report reads "the consumer absorbed everything and released
// nothing". Boxes include their output flows in their BoxInfo.Queues
// snapshots; read only at the cycle barrier.
func (f *Flow) QueueStat() core.QueueStat {
	return core.QueueStat{Name: f.sig.Name(), Occupied: f.cap - f.credits, Capacity: f.cap}
}

// CanSend reports whether n more objects can be sent this cycle: the
// consumer queue has room and the wire has bandwidth left.
func (f *Flow) CanSend(cycle int64, n int) bool {
	if f.credits < n {
		return false
	}
	used := 0
	if cycle == f.sentCycle {
		used = f.sentCount
	}
	return used+n <= f.sig.Bandwidth()
}

// OutOfCredit reports that nothing can be sent until the consumer
// releases a credit, whose fold wakes the producer: a producer with
// credit left may have run out of bandwidth for one cycle only.
func (f *Flow) OutOfCredit() bool { return f.credits == 0 }

func (f *Flow) note(cycle int64) {
	if cycle != f.sentCycle {
		f.sentCycle = cycle
		f.sentCount = 0
	}
	if f.credits <= 0 || f.sentCount >= f.sig.Bandwidth() {
		panic("gpu: Flow send without credit/bandwidth: producer must check CanSend")
	}
	f.credits--
	f.sentCount++
}

// Send writes an object, consuming one credit.
func (f *Flow) Send(cycle int64, obj core.Dynamic) {
	f.note(cycle)
	f.sig.Write(cycle, obj)
}

// SendLat writes an object with an explicit latency (variable-latency
// pipelines such as the interpolator), consuming one credit.
func (f *Flow) SendLat(cycle int64, obj core.Dynamic, lat int) {
	f.note(cycle)
	f.sig.WriteLat(cycle, lat, obj)
}

// Recv reads the objects arriving this cycle (they occupy credits
// until Release).
func (f *Flow) Recv(cycle int64) []core.Dynamic { return f.sig.Read(cycle) }

// Release returns n credits after the consumer retires items from
// its input queue. The credits become visible to the producer at the
// next cycle barrier.
func (f *Flow) Release(n int) {
	f.released += n
	if f.pub != nil {
		f.pub.Mark()
	}
}

// EndCycle folds released credits into the producer-visible pool. It
// runs at the simulator's cycle barrier (core.EndCycleFunc); calling it
// on a cycle nothing was released changes nothing.
func (f *Flow) EndCycle(cycle int64) {
	f.credits += f.released
	f.released = 0
}

// parkOnMiss parks a unit whose Clock ended stalled on its head item —
// a line missing from its cache; or, asking nothing of the cache
// (fillQueued true), no credit to forward it — if nothing moved in the
// cache this cycle: until a reply is written to the cache's port,
// something to the unit's own inputs, or credit folds into its output.
// It sleeps through cycles like this one, each adding one to the stall
// counters named and, when the fill could not even be queued and is
// retried every cycle, to the cache's count of refusals. A cache that
// moved may have more to do next cycle: the unit stays awake for it.
func parkOnMiss(b *core.BoxBase, cache *mem.Cache, fillQueued bool, stalls ...*core.Counter) {
	if !cache.Still() {
		return
	}
	for _, c := range stalls {
		b.ParkCounting(c, 1)
	}
	if !fillQueued {
		b.ParkCounting(cache.MissStalls(), 1)
	}
}

// stepFlush advances a ROP's flush of its cache by a cycle — issue the
// dirty lines as the port takes them, then wait for the last
// acknowledgement — and reports it over. A flush counts nothing while it
// waits, and waits until a reply is written to the cache's port.
func stepFlush(b *core.BoxBase, cache *mem.Cache, cycle int64, issued *bool) (done bool) {
	switch {
	case !*issued:
		if *issued = cache.FlushDirty(cycle); !*issued && cache.Still() {
			b.Park() // no room on the port for the next line
		}
	case cache.Quiesce():
		return true
	case cache.Still():
		b.Park()
	}
	return false
}

// SurfaceLayout maps framebuffer pixels to tiled GPU memory: 8x8
// pixel blocks of 4 bytes per pixel, one block per 256-byte cache
// line, blocks stored row major (the third tiling level of §2.2).
type SurfaceLayout struct {
	Base   uint32
	W, H   int
	tilesX int
}

// SurfaceTile is the framebuffer block edge in pixels.
const SurfaceTile = 8

// SurfaceBlockBytes is the memory footprint of one block.
const SurfaceBlockBytes = SurfaceTile * SurfaceTile * 4

// NewSurfaceLayout builds the layout for a w x h surface at base.
func NewSurfaceLayout(base uint32, w, h int) SurfaceLayout {
	return SurfaceLayout{Base: base, W: w, H: h, tilesX: (w + SurfaceTile - 1) / SurfaceTile}
}

// BlockAddr returns the memory address of the block containing pixel
// (x, y) — the cache line key.
func (s SurfaceLayout) BlockAddr(x, y int) uint32 {
	bx, by := x/SurfaceTile, y/SurfaceTile
	return s.Base + uint32((by*s.tilesX+bx)*SurfaceBlockBytes)
}

// BlockIndex returns the block ordinal for block-state tables.
func (s SurfaceLayout) BlockIndex(x, y int) int {
	return (y/SurfaceTile)*s.tilesX + x/SurfaceTile
}

// Offset returns the pixel's byte offset within its block.
func (s SurfaceLayout) Offset(x, y int) int {
	return ((y%SurfaceTile)*SurfaceTile + x%SurfaceTile) * 4
}

// NumBlocks returns the total block count.
func (s SurfaceLayout) NumBlocks() int {
	tilesY := (s.H + SurfaceTile - 1) / SurfaceTile
	return s.tilesX * tilesY
}

// Bytes returns the surface's memory footprint.
func (s SurfaceLayout) Bytes() int { return s.NumBlocks() * SurfaceBlockBytes }
