package gpu

import (
	"math"
	"runtime"
	"sync"

	"attila/internal/isa"
)

// Shader work runs ahead of the timing model. ARB programs have no
// branch, so what a thread issues when, and how long it waits, follows
// from its decoded program alone, never from the values Step computes.
// A shader unit therefore issues from the decoded program at a timing PC
// of its own (shaderThread.pc), and the thread's functional state moves
// in segments: from a dispatch point (work accepted, texels written back)
// through the next texture instruction or END. Timing reads functional
// state in two places only, and joins the thread's segment there: a
// texture instruction's issue (the request's coordinates) and retirement
// (the outputs and the KIL mask). A branch opcode, if the ISA gains one,
// becomes a third join point: its target is a value.
//
// A segment of at least runAheadMin instructions goes to the helper
// goroutine of the Run, once the batch's program has run through END on
// the clock goroutine without a fault (see dispatch). Any other segment
// runs on the clock goroutine at dispatch, and so does a handed-off one
// the helper has not started when timing joins it. Either way every Step
// of a thread runs the same float32 code, one goroutine at a time, so
// frames, statistics and checkpoints are what they were when Step ran at
// issue.
//
// The threshold weighs what a handoff costs the clock goroutine against
// about 69 ns a Step, 2.2 µs for 32 of them. BenchmarkRunAheadHandoff on
// a 2-CPU VM: 140–230 ns a segment while the helper is busy (an atomic
// store and a buffered channel send), 2.7–3.1 µs to wake a parked helper.
// Every segment of the game scenes is shorter than 16 instructions, so
// they never leave the clock goroutine.
const runAheadMin = 32

// The states of a handed-off segment (shaderThread.seg). Whoever moves
// a queued segment to running runs it.
const (
	segQueued uint32 = iota
	segRunning
	segDone
)

// joinSpins is how many times a join polls a segment the helper is
// running before it starts yielding the processor between polls.
const joinSpins = 64

// runAhead is a pipeline's shader helper: the queue of handed-off
// segments and, during a Run, the goroutine that drains it.
type runAhead struct {
	queue      chan *shaderThread // a nil entry ends the goroutine
	exited     sync.WaitGroup
	loop       func() // drain, bound once: a Run starts it with no closure to allocate
	min        int    // shortest segment handed off: runAheadMin but in tests
	beforeStep func() // test seam: called on the helper before each Step
}

// init makes the queue, with room for a segment per thread slot: a
// dispatch never waits for room.
func (h *runAhead) init(shaders []*ShaderUnit) {
	slots := 1 // the nil that ends a Run
	for _, s := range shaders {
		slots += len(s.threads)
	}
	h.queue, h.loop, h.min = make(chan *shaderThread, slots), h.drain, runAheadMin
}

// start starts the helper goroutine of a Run and hands it to the shader
// units.
func (h *runAhead) start(shaders []*ShaderUnit) {
	for _, s := range shaders {
		s.ahead = h
	}
	h.exited.Add(1)
	go h.loop()
}

// stop takes the helper away from the shader units, lets it drain the
// queue and waits for it to exit. A segment still queued after that
// runs on the clock goroutine at its join, in a later Run or a harness
// that clocks by hand.
func (h *runAhead) stop(shaders []*ShaderUnit) {
	for _, s := range shaders {
		s.ahead = nil
	}
	h.queue <- nil
	h.exited.Wait()
}

// drain runs the queued segments it claims until it reads the nil
// entry. It blocks while the queue is empty. An entry whose segment a
// join has claimed, or that is finished, is skipped: the thread's state
// word, not the entry, says whether there is work.
func (h *runAhead) drain() {
	defer h.exited.Done()
	for th := <-h.queue; th != nil; th = <-h.queue {
		if th.seg.CompareAndSwap(segQueued, segRunning) {
			th.run(h.beforeStep)
			th.seg.Store(segDone)
		}
	}
}

// dispatch starts the segment at th's PC. It goes to the helper when
// there is one, the segment is long enough, and the batch's program has
// already run through END on the clock goroutine without a fault. Step
// faults depend on the program, never on register values, so no later
// segment of that program faults on the helper, where the crash could
// only surface at the join, cycles late (run keeps it for the timing side
// either way). Otherwise the segment runs here and now.
func (s *ShaderUnit) dispatch(th *shaderThread) {
	if h := s.ahead; h != nil && *th.clean && longSegment(th.ops, th.pc, h.min) {
		th.handedOff = true
		th.seg.Store(segQueued)
		select {
		case h.queue <- th:
		default: // a full queue: the join runs it
		}
		return
	}
	th.run(nil)
	th.settle()
	if th.t.Done && th.faultPC == math.MaxInt {
		*th.clean = true
	}
}

// longSegment reports whether the segment starting at pc runs at least
// min instructions: none of the first min-1 ends it.
func longSegment(ops []isa.Decoded, pc, min int) bool {
	if len(ops)-pc < min {
		return false
	}
	for i := pc; i < pc+min-1; i++ {
		if op := &ops[i]; op.Texture || op.Op == isa.END {
			return false
		}
	}
	return true
}

// join makes th's functional state current for the timing side: it
// waits for a handed-off segment the helper is running, or runs it here
// if the helper has not started it.
func (th *shaderThread) join() {
	if !th.handedOff {
		return
	}
	th.handedOff = false
	if th.seg.CompareAndSwap(segQueued, segRunning) {
		th.run(nil)
		th.seg.Store(segDone)
	} else {
		for spin := 0; th.seg.Load() != segDone; spin++ {
			if spin >= joinSpins {
				runtime.Gosched()
			}
		}
	}
	th.settle()
}

// run executes th's segment: Step from the thread's PC through a
// texture instruction or END. A panic in Step is recovered and kept with
// the PC of the instruction that raised it; the shader unit raises it
// again when timing issues that instruction, or at the join if timing is
// already past it (settle).
func (th *shaderThread) run(beforeStep func()) {
	pc := th.t.PC
	defer func() {
		if r := recover(); r != nil {
			th.raised, th.raisedAt = r, pc
		}
	}()
	for {
		pc = th.t.PC
		if beforeStep != nil {
			beforeStep()
		}
		if op := th.emu.Step(th.t); op.Texture || op.Op == isa.END {
			return
		}
	}
}

// settle hands a finished segment's fault, if it had one, to the timing
// side.
func (th *shaderThread) settle() {
	if th.raised != nil {
		th.faultPC = th.raisedAt
	}
}
