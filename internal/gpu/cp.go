package gpu

import (
	"fmt"

	"attila/internal/core"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/shaderemu"
	"attila/internal/mem"
)

// CommandProcessor controls the whole pipeline (paper §2.2 and §4):
// it consumes the command stream produced by the driver (render a
// batch, write a buffer from system memory, fast clear the color or
// depth-stencil buffers, swap the color buffers), pipelines buffer
// writes and state changes with batch rendering, and overlaps the
// geometry phase of one batch with the fragment phase of the
// previous one.
type CommandProcessor struct {
	core.BoxBase
	cfg  *Config
	port *mem.Port

	cmds []Command
	pc   int

	// Buffer write streaming, rate limited by the system bus.
	writing  *CmdBufferWrite
	writeOff int
	busDebt  int

	drawOut *Flow

	active      []*BatchState
	nextBatchID int

	ropzs []*ZStencil
	ropcs []*ColorWrite
	dac   *DAC
	fb    *Framebuffer

	waitClear bool
	waitSwap  bool
	swapState int // 0 flush, 1 dac

	// Render-to-texture sequencing.
	rtt struct {
		active  bool
		stage   int // 0 flush ROPc, 1 switch/stream
		cmdSet  *CmdSetRenderTarget
		clear   *CmdClearColor // RTT clears stream memory directly
		block   int
		tusDone bool
	}
	tus []*TextureUnit

	finished bool
	sim      *core.Simulator

	wakes batchWakes // shared by every batch this CP builds

	statCmds    core.Progress
	statBatches core.Progress
	statFrames  core.Progress
	statBytesUp core.Progress
	statOverlap core.Counter
}

// NewCommandProcessor builds the box.
func NewCommandProcessor(sim *core.Simulator, cfg *Config, fb *Framebuffer,
	drawOut *Flow, ropzs []*ZStencil, ropcs []*ColorWrite, tus []*TextureUnit, dac *DAC) *CommandProcessor {
	cp := &CommandProcessor{
		cfg: cfg, fb: fb, drawOut: drawOut,
		ropzs: ropzs, ropcs: ropcs, tus: tus, dac: dac, sim: sim,
	}
	cp.Init("CommandProcessor")
	cp.wakes.cp = &cp.BoxBase
	cp.port = mem.NewPort(sim, "CP", 8)
	sim.Binder.Own(cp.BoxName(), "CP") // a reply on MC.CP.Reply wakes the CP
	// What the CP waits for wakes it as it completes.
	for _, z := range ropzs {
		z.cp = &cp.BoxBase
	}
	for _, c := range ropcs {
		c.cp = &cp.BoxBase
	}
	dac.cp = &cp.BoxBase
	sim.Stats.ShadowProgress(&cp.statCmds, "CP.commands")
	sim.Stats.ShadowProgress(&cp.statBatches, "CP.batches")
	sim.Stats.ShadowProgress(&cp.statFrames, "CP.frames")
	sim.Stats.ShadowProgress(&cp.statBytesUp, "CP.uploadBytes")
	sim.Stats.ShadowCounter(&cp.statOverlap, "CP.overlapCycles")
	sim.Register(cp)
	return cp
}

// SetCommands loads the command stream (before running).
func (cp *CommandProcessor) SetCommands(cmds []Command) {
	cp.cmds = cmds
	cp.pc = 0
	cp.finished = false
}

// Finished reports completion of every command, with the pipeline
// drained.
func (cp *CommandProcessor) Finished() bool { return cp.finished }

// Frames returns the number of completed frames (swaps).
func (cp *CommandProcessor) Frames() int { return int(cp.statFrames.Value()) }

// Clock implements core.Box.
//
// The command processor waits for other boxes most of the time, and
// parks while it does: after a Clock that received no reply and moved
// nothing — every further one would do the same, adding only to
// overlapCycles with two batches in flight — until one of the things it
// waits for announces itself. Batches wake it as they end their
// geometry phase and retire, the ROPs as a clear or flush completes, the
// DAC as a dump does, the texture units' quiesce flag and the draw
// flow's credits through their folds, and memory replies through its
// port. Streaming bytes it stays awake: the bus budget grows every cycle.
func (cp *CommandProcessor) Clock(cycle int64) {
	replied := len(cp.port.Replies(cycle)) > 0
	at := cp.position()
	cp.step(cycle)
	if replied || cp.position() != at || cp.streaming() {
		return
	}
	if len(cp.active) >= 2 {
		cp.ParkCounting(&cp.statOverlap, 1)
	} else {
		cp.Park()
	}
}

// streaming reports an upload or an offscreen clear in progress: the
// states that feed the system bus, whose budget grows every cycle.
func (cp *CommandProcessor) streaming() bool {
	return cp.writing != nil || cp.rtt.active && cp.rtt.stage == 1
}

// cpPosition is what a Clock can move outside the streaming states.
type cpPosition struct {
	pc, active, swapState                       int
	waitClear, waitSwap, rtt, tusDone, finished bool
}

func (cp *CommandProcessor) position() cpPosition {
	return cpPosition{cp.pc, len(cp.active), cp.swapState,
		cp.waitClear, cp.waitSwap, cp.rtt.active, cp.rtt.tusDone, cp.finished}
}

// step is one cycle of command processing.
func (cp *CommandProcessor) step(cycle int64) {
	// Retire completed batches in order.
	for len(cp.active) > 0 && cp.active[0].Done() {
		cp.active = cp.active[1:]
	}
	if len(cp.active) >= 2 {
		cp.statOverlap.Inc()
	}

	if cp.writing != nil {
		cp.streamWrite(cycle)
		return
	}
	if cp.waitClear {
		done := true
		for _, z := range cp.ropzs {
			done = done && z.ClearDone()
		}
		for _, c := range cp.ropcs {
			done = done && c.ClearDone()
		}
		if done {
			cp.waitClear = false
			cp.pc++
		}
		return
	}
	if cp.waitSwap {
		cp.stepSwap(cycle)
		return
	}
	if cp.rtt.active {
		cp.stepRTT(cycle)
		return
	}

	if cp.pc >= len(cp.cmds) {
		if len(cp.active) == 0 && cp.port.Outstanding() == 0 {
			cp.finished = true
		}
		return
	}

	switch cmd := cp.cmds[cp.pc].(type) {
	case CmdBufferWrite:
		// Buffer writes pipeline with rendering, but must drain
		// before a draw that could read them starts.
		cp.writing = &cmd
		cp.writeOff = 0
		cp.busDebt = 0
		cp.statCmds.Inc()
	case CmdDraw:
		if !cp.canDraw() || !cp.drawOut.CanSend(cycle, 1) {
			return
		}
		b := cp.newBatch(cmd.State)
		cp.active = append(cp.active, b)
		cp.drawOut.Send(cycle, b)
		cp.statBatches.Inc()
		cp.statCmds.Inc()
		cp.pc++
	case CmdClearColor:
		if !cp.quiet() {
			return
		}
		if cp.fb.override != nil {
			// Offscreen targets are cleared by writing memory so
			// the texture units later read real data (no fast-clear
			// block state survives on a sampleable surface).
			cmdCopy := cmd
			cp.startRTT(nil, &cmdCopy)
			return
		}
		for _, c := range cp.ropcs {
			c.StartClear(cmd.Value)
		}
		cp.waitClear = true
		cp.statCmds.Inc()
	case CmdClearZS:
		if !cp.quiet() {
			return
		}
		value := fragemu.PackDS(fragemu.DepthToFixed(cmd.Depth), cmd.Stencil)
		for _, z := range cp.ropzs {
			z.StartClear(value)
		}
		cp.waitClear = true
		cp.statCmds.Inc()
	case CmdSetRenderTarget:
		if !cp.quiet() {
			return
		}
		cmdCopy := cmd
		cp.startRTT(&cmdCopy, nil)
		return
	case CmdSwap:
		if !cp.quiet() {
			return
		}
		if cp.fb.override != nil {
			panic("gpu: CmdSwap while rendering to a texture; restore the default target first")
		}
		for _, z := range cp.ropzs {
			z.StartFlush()
		}
		for _, c := range cp.ropcs {
			c.StartFlush()
		}
		cp.waitSwap = true
		cp.swapState = 0
		cp.statCmds.Inc()
	default:
		panic(fmt.Sprintf("gpu: unknown command %T", cmd))
	}
}

// quiet reports that no batch is in flight and uploads are drained.
func (cp *CommandProcessor) quiet() bool {
	return len(cp.active) == 0 && cp.port.Outstanding() == 0
}

// canDraw applies the two-phase batch pipelining rule: at most two
// batches in flight, and the previous batch must have finished its
// geometry phase; pending uploads must have reached memory.
func (cp *CommandProcessor) canDraw() bool {
	if cp.port.Outstanding() > 0 {
		return false
	}
	if len(cp.active) >= 2 {
		return false
	}
	if len(cp.active) == 1 && !cp.active[0].GeomDone() {
		return false
	}
	return true
}

func (cp *CommandProcessor) newBatch(st *DrawState) *BatchState {
	cp.nextBatchID++
	b := newBatchState(uint64(cp.nextBatchID), st, cp.cfg)
	b.wakes = &cp.wakes
	return b
}

// newBatchState is the only constructor of a batch, and so the only
// place its shader emulators are made.
func newBatchState(id uint64, st *DrawState, cfg *Config) *BatchState {
	b := &BatchState{
		DynObject: core.DynObject{ID: id, Tag: "batch"},
		State:     st,
	}
	// The shader emulators are built eagerly: shader units treat the
	// batch as read-only.
	if st.FragmentProg != nil {
		b.fragEmu = shaderemu.New(st.FragmentProg, st.FragConsts)
	}
	if st.VertexProg != nil {
		b.vtxEmu = shaderemu.New(st.VertexProg, st.VertConsts)
	}
	b.EarlyZ = cfg.EarlyZ && st.EarlyZAllowed()
	// Hierarchical Z is only sound when the depth test culls
	// strictly farther fragments and no stencil update depends on
	// failing fragments (shadow volume passes update stencil on
	// depth fail: HZ-culled tiles would skip those updates).
	hzFunc := st.Depth.Enabled &&
		(st.Depth.Func == fragemu.CmpLess || st.Depth.Func == fragemu.CmpLEqual)
	stencilSafe := !st.Stencil.Enabled ||
		(st.Stencil.SFail == fragemu.StKeep && st.Stencil.DPFail == fragemu.StKeep &&
			(!st.TwoSidedStencil ||
				(st.StencilBack.SFail == fragemu.StKeep && st.StencilBack.DPFail == fragemu.StKeep)))
	b.HZ = cfg.HZEnabled && b.EarlyZ && hzFunc && stencilSafe
	return b
}

// streamWrite feeds one buffer upload through the system bus (paper:
// PCIe-like, SystemBusBW bytes/cycle) into GDDR transactions.
func (cp *CommandProcessor) streamWrite(cycle int64) {
	cp.busDebt += cp.cfg.SystemBusBW
	data := cp.writing.Data
	for cp.writeOff < len(data) {
		n := len(data) - cp.writeOff
		if n > mem.TransactionSize {
			n = mem.TransactionSize
		}
		if cp.busDebt < n || !cp.port.CanIssue() {
			return
		}
		buf := data[cp.writeOff : cp.writeOff+n]
		cp.port.Write(cycle, cp.writing.Addr+uint32(cp.writeOff), buf, 0)
		cp.writeOff += n
		cp.busDebt -= n
		cp.statBytesUp.Add(float64(n))
	}
	cp.writing = nil
	cp.pc++
}

// startRTT begins a render-target switch or an offscreen clear: both
// flush the color caches first so the old target's data reaches
// memory.
func (cp *CommandProcessor) startRTT(set *CmdSetRenderTarget, clear *CmdClearColor) {
	cp.rtt.active = true
	cp.rtt.stage = 0
	cp.rtt.cmdSet = set
	cp.rtt.clear = clear
	cp.rtt.block = 0
	cp.rtt.tusDone = false
	for _, c := range cp.ropcs {
		c.StartFlush()
	}
	cp.statCmds.Inc()
}

func (cp *CommandProcessor) stepRTT(cycle int64) {
	switch cp.rtt.stage {
	case 0:
		for _, c := range cp.ropcs {
			if !c.FlushDone() {
				return
			}
		}
		// Color caches are clean: drop them (the next target's
		// addresses alias nothing stale) and drop the texture caches
		// (they may hold pre-render texel data of the target).
		for _, c := range cp.ropcs {
			c.Cache().InvalidateAll()
		}
		if !cp.rtt.tusDone {
			for _, t := range cp.tus {
				if !t.Quiesce() {
					return
				}
			}
			for _, t := range cp.tus {
				t.Cache().InvalidateAll()
			}
			cp.rtt.tusDone = true
		}
		if cp.rtt.cmdSet != nil {
			if cp.rtt.cmdSet.Default {
				cp.fb.SetOverride(nil)
			} else {
				target := cp.rtt.cmdSet.Target
				cp.fb.SetOverride(&target)
			}
			cp.rtt.active = false
			cp.pc++
			return
		}
		cp.rtt.stage = 1
		fallthrough
	case 1:
		// Stream the clear color into the offscreen target's memory
		// (256-byte blocks through the CP port).
		target := cp.fb.Draw()
		total := target.NumBlocks()
		cp.busDebt += cp.cfg.SystemBusBW * 8 // GPU-side fill, faster than uploads
		const pieces = SurfaceBlockBytes / mem.TransactionSize
		for cp.rtt.block < total {
			// A block is written whole or not at all: partial issue
			// would leave holes in the cleared surface.
			if cp.port.Free() < pieces || cp.busDebt < SurfaceBlockBytes {
				return
			}
			line := make([]byte, SurfaceBlockBytes)
			for i := 0; i < SurfaceBlockBytes; i += 4 {
				copy(line[i:], cp.rtt.clear.Value[:])
			}
			base := target.Base + uint32(cp.rtt.block*SurfaceBlockBytes)
			for off := 0; off < SurfaceBlockBytes; off += mem.TransactionSize {
				cp.port.Write(cycle, base+uint32(off), line[off:off+mem.TransactionSize], 0)
			}
			cp.busDebt -= SurfaceBlockBytes
			cp.rtt.block++
		}
		if cp.port.Outstanding() > 0 {
			return
		}
		cp.rtt.active = false
		cp.pc++
	}
}

func (cp *CommandProcessor) stepSwap(cycle int64) {
	switch cp.swapState {
	case 0:
		for _, z := range cp.ropzs {
			if !z.FlushDone() {
				return
			}
		}
		for _, c := range cp.ropcs {
			if !c.FlushDone() {
				return
			}
		}
		// Flip buffers, then dump the new front buffer.
		cp.fb.Swap()
		cp.dac.StartDump(cp.fb.Front())
		cp.swapState = 1
	case 1:
		if !cp.dac.Done() {
			return
		}
		cp.waitSwap = false
		cp.statFrames.Inc()
		cp.pc++
	}
}
