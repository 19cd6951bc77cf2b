package gpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"attila/internal/core"
	"attila/internal/emu/texemu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// textureHeavyScene renders a fullscreen textured quad with a given
// scheduling mode and TU count, returning total cycles. The texture
// is large enough to miss the cache regularly, so the run exposes
// texture latency.
func textureHeavyScene(t *testing.T, mode ScheduleMode, tus int) int64 {
	t.Helper()
	cfg := CaseStudy(tus, mode)
	cfg.StatInterval = 0
	p, err := New(cfg, 96, 96)
	if err != nil {
		t.Fatal(err)
	}

	// Build a 64x64 texture directly in GPU memory; sampled
	// magnified so the texture cache hits and TU throughput (not
	// memory bandwidth) is the exposed cost.
	tex := &texemu.Texture{
		Target: isa.Tex2D, Format: texemu.FmtRGBA8,
		Width: 64, Height: 64, Depth: 1, Levels: 1,
		MinFilter: texemu.FilterLinear, MagFilter: texemu.FilterLinear,
		MaxAniso: 1,
	}
	base, err := p.Alloc(tex.TotalBytes(), 256)
	if err != nil {
		t.Fatal(err)
	}
	tex.Base[0][0] = base
	texData := make([]byte, tex.TotalBytes())
	for i := range texData {
		texData[i] = byte(i * 31)
	}

	vp := isa.MustAssemble(isa.VertexProgram, "vp", "MOV o0, v0\nMOV o4, v1\nEND")
	fp := isa.MustAssemble(isa.FragmentProgram, "fp", `
TEX r0, v4, t0, 2D
TEX r1, v4.yxzw, t0, 2D
ADD o0, r0, r1
END`)
	st, vbuf := testState(t, p, 6)
	st.VertexProg, st.FragmentProg = vp, fp
	st.Textures[0] = tex
	verts := buildVerts(
		vtx(-1, -1, 0, vmath.Vec4{0, 0, 0, 0}),
		vtx(1, -1, 0, vmath.Vec4{1, 0, 0, 0}),
		vtx(1, 1, 0, vmath.Vec4{1, 1, 0, 0}),
		vtx(-1, -1, 0, vmath.Vec4{0, 0, 0, 0}),
		vtx(1, 1, 0, vmath.Vec4{1, 1, 0, 0}),
		vtx(-1, 1, 0, vmath.Vec4{0, 1, 0, 0}),
	)
	cmds := []Command{
		CmdBufferWrite{Addr: base, Data: texData},
		CmdBufferWrite{Addr: vbuf, Data: verts},
		CmdClearZS{Depth: 1, Stencil: 0},
		CmdClearColor{Value: [4]byte{0, 0, 0, 255}},
		CmdDraw{State: st},
		CmdSwap{},
	}
	if err := p.Run(cmds, 50_000_000); err != nil {
		t.Fatal(err)
	}
	return p.Cycles()
}

// The thread window must hide texture latency better than the
// in-order input queue (the §5 case study's core claim).
func TestWindowBeatsInOrderQueue(t *testing.T) {
	window := textureHeavyScene(t, ScheduleWindow, 2)
	inorder := textureHeavyScene(t, ScheduleInOrderQueue, 2)
	if inorder <= window {
		t.Fatalf("in-order (%d cycles) not slower than window (%d cycles)", inorder, window)
	}
	// The gap should be substantial on a texture-bound scene.
	if float64(inorder) < 1.2*float64(window) {
		t.Logf("warning: small scheduling gap: window=%d inorder=%d", window, inorder)
	}
}

// On a cache-friendly texture-bound scene, extra TUs must help (on
// memory-bound scenes the Figure 8 line-duplication effect can make
// extra TUs a wash, which Fig7ShapeTiny covers separately).
func TestTextureUnitScaling(t *testing.T) {
	c1 := textureHeavyScene(t, ScheduleWindow, 1)
	c3 := textureHeavyScene(t, ScheduleWindow, 3)
	if c3 >= c1 {
		t.Fatalf("3 TUs (%d cycles) not faster than 1 TU (%d cycles)", c3, c1)
	}
}

// Batch pipelining: the geometry phase of batch N+1 overlaps the
// fragment phase of batch N (§2.2 two-phase pipelining): with two
// draws in the stream, the command processor must have two batches in
// flight at some point.
func TestBatchOverlap(t *testing.T) {
	cfg := BaselineUnified()
	cfg.StatInterval = 0
	p, err := New(cfg, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	red := vmath.Vec4{1, 0, 0, 1}
	st1, vbuf := testState(t, p, 3)
	st2, _ := testState(t, p, 3)
	st2.Attribs = st1.Attribs
	verts := buildVerts(
		vtx(-1, -1, 0.4, red), vtx(1, -1, 0.4, red), vtx(0, 1, 0.4, red))
	cmds := []Command{
		CmdBufferWrite{Addr: vbuf, Data: verts},
		CmdClearZS{Depth: 1, Stencil: 0},
		CmdClearColor{Value: [4]byte{0, 0, 0, 255}},
		CmdDraw{State: st1},
		CmdDraw{State: st2},
		CmdSwap{},
	}
	if err := p.Run(cmds, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if v := p.Sim.Stats.Lookup("CP.overlapCycles").Value(); v <= 0 {
		t.Fatalf("no batch overlap observed for back-to-back draws (%v cycles)", v)
	}
}

// DAC screen refresh (paper §2.2): enabling it must add front-buffer
// read traffic during rendering without changing the image.
func TestDACRefreshTraffic(t *testing.T) {
	render := func(refresh int64) (*Frame, float64) {
		cfg := BaselineUnified()
		cfg.StatInterval = 0
		cfg.DACRefreshCycles = refresh
		p, err := New(cfg, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		red := vmath.Vec4{1, 0, 0, 1}
		st, vbuf := testState(t, p, 3)
		verts := buildVerts(
			vtx(-1, -1, 0, red), vtx(1, -1, 0, red), vtx(0, 1, 0, red))
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
		return p.Frames()[0], p.Sim.Stats.Lookup("DAC.refreshBytes").Value()
	}
	fOff, rOff := render(0)
	fOn, rOn := render(16)
	if rOff != 0 {
		t.Fatalf("refresh traffic with refresh disabled: %v", rOff)
	}
	if rOn <= 0 {
		t.Fatal("no refresh traffic with refresh enabled")
	}
	if diff, _ := DiffFrames(fOff, fOn); diff != 0 {
		t.Fatalf("refresh changed the image: %d px", diff)
	}
}

// refSched is the shader unit's issue scheduler as it was before
// issueSched replaced it (commit a9fa157): pickThread and the attempt
// loop of issue, verbatim but for the scoreboard test, which reads the
// thread's wake cycle where the original walked the next instruction's
// registers. It defines which thread issues each cycle and where rr
// rests afterwards — both part of the determinism contract, rr because
// it is checkpointed and because it decides every later pick.
type refSched struct {
	inOrder bool
	threads []refThread
	rr      int
	running int
	seq     int64
}

type refThread struct {
	state   threadState
	arrival int64
	wakeAt  int64
}

func (s *refSched) pickThread() int {
	if s.running == 0 {
		return -1
	}
	if s.inOrder {
		oldest, best := -1, int64(0)
		for i := range s.threads {
			th := &s.threads[i]
			if th.state == threadFree || th.state == threadDone {
				continue
			}
			if oldest < 0 || th.arrival < best {
				oldest, best = i, th.arrival
			}
		}
		if oldest >= 0 && s.threads[oldest].state == threadRunning {
			return oldest
		}
		return -1
	}
	n := len(s.threads)
	for k := 0; k < n; k++ {
		i := (s.rr + k) % n
		if s.threads[i].state == threadRunning {
			s.rr = (i + 1) % n
			return i
		}
	}
	return -1
}

// issue runs one cycle's attempt loop; execute is told each slot that
// issues and changes that thread's state or wake cycle.
func (s *refSched) issue(cycle int64, rate int, execute func(slot int)) {
	issued := 0
	attempts := len(s.threads)
	for n := 0; issued < rate && n < attempts; n++ {
		i := s.pickThread()
		if i < 0 {
			break
		}
		if s.threads[i].wakeAt > cycle {
			continue
		}
		execute(i)
		issued++
	}
}

func (s *refSched) setState(i int, ns threadState, wake int64) {
	th := &s.threads[i]
	if th.state == threadRunning {
		s.running--
	}
	if ns == threadRunning {
		s.running++
	}
	if th.state == threadFree {
		th.arrival = s.seq
		s.seq++
	}
	th.state, th.wakeAt = ns, wake
}

// schedPair applies every thread-state change to the reference model
// and to an issueSched the way ShaderUnit.setState does.
type schedPair struct {
	ref refSched
	new issueSched
}

func (p *schedPair) setState(i int, ns threadState, wake int64) {
	p.setNew(i, p.ref.threads[i].state, ns, wake)
	p.ref.setState(i, ns, wake)
}

func (p *schedPair) setNew(i int, old, ns threadState, wake int64) {
	if old == threadFree {
		p.new.arrive(i)
	} else if ns == threadDone {
		p.new.finish(i)
	}
	if ns == threadRunning {
		p.new.run(i, wake)
	} else {
		p.new.stop(i)
	}
}

// outcome is what issuing does to a thread: a scoreboard latency before
// its next instruction (0: independent, may issue again this cycle), a
// texture request, or END.
type outcome struct {
	state   threadState
	latency int64
}

func drawOutcome(rng *rand.Rand, slow int64) outcome {
	switch r := rng.Intn(20); {
	case r < 3:
		return outcome{state: threadDone}
	case r < 5:
		return outcome{state: threadBlockedTex}
	default:
		return outcome{state: threadRunning, latency: slow * []int64{0, 1, 1, 3, 3, 9}[rng.Intn(6)]}
	}
}

// TestSchedulerMatchesReference drives the reference model and the
// issueSched with the same seeded sequence of arrivals, texture
// completions, retirements and issue outcomes, and requires the same
// issued slots and the same rr after every cycle — idle ones included.
func TestSchedulerMatchesReference(t *testing.T) {
	for _, inOrder := range []bool{false, true} {
		for _, rate := range []int{1, 2} {
			for _, threads := range []int{1, 16, 28, 32, 70} {
				name := fmt.Sprintf("inorder=%v/rate=%d/threads=%d", inOrder, rate, threads)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 4; seed++ {
						runSchedulerPair(t, inOrder, rate, threads, seed)
					}
				})
			}
		}
	}
}

func runSchedulerPair(t *testing.T, inOrder bool, rate, threads int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := schedPair{
		ref: refSched{inOrder: inOrder, threads: make([]refThread, threads)},
		new: newIssueSched(threads, inOrder),
	}
	var idle, busy, wrapped int
	// The load moves in phases so the unit is seen full, nearly empty,
	// and with every running thread waiting on its scoreboard.
	arrive, complete, slow := 0.5, 0.2, int64(1)
	for cycle := int64(0); cycle < 12000; cycle++ {
		if cycle%500 == 0 {
			arrive = []float64{0.05 / float64(threads), 0.1, 1}[rng.Intn(3)] // per free slot
			complete = rng.Float64() * 0.3
			slow = []int64{1, int64(threads)}[rng.Intn(2)]
		}
		for i := range p.ref.threads {
			switch th := &p.ref.threads[i]; {
			case th.state == threadBlockedTex && rng.Float64() < complete:
				p.setState(i, threadRunning, cycle+1)
			case th.state == threadDone && rng.Float64() < 0.5:
				p.setState(i, threadFree, 0)
			case th.state == threadFree && rng.Float64() < arrive:
				// Most arrivals are ready at once; some wait on the scoreboard.
				p.setState(i, threadRunning, cycle+[]int64{0, 0, 0, 5}[rng.Intn(4)])
			}
		}

		outcomes := make([]outcome, rate)
		for k := range outcomes {
			outcomes[k] = drawOutcome(rng, slow)
		}
		// Each side issues against its own copy of the same state.
		var want []int
		p.ref.issue(cycle, rate, func(slot int) {
			o := outcomes[len(want)]
			want = append(want, slot)
			p.ref.setState(slot, o.state, cycle+o.latency)
		})
		var got []int
		for attempts := threads; len(got) < rate; {
			slot := p.new.pick(cycle, &attempts)
			if slot < 0 {
				break
			}
			o := outcomes[len(got)]
			got = append(got, slot)
			p.setNew(slot, threadRunning, o.state, cycle+o.latency)
		}

		if !slices.Equal(got, want) || p.new.rr != p.ref.rr {
			t.Fatalf("seed %d cycle %d: issued %v rr %d, reference issued %v rr %d",
				seed, cycle, got, p.new.rr, want, p.ref.rr)
		}
		for i, th := range p.ref.threads {
			running := p.new.runSet[i>>6]&(1<<(i&63)) != 0
			if running != (th.state == threadRunning) || running && p.new.wakeAt[i] != th.wakeAt {
				t.Fatalf("seed %d cycle %d: slot %d running=%v wake %d, reference %+v", seed, cycle, i, running, p.new.wakeAt[i], th)
			}
		}
		switch {
		case len(got) > 0:
			busy++
		case p.ref.running > 0:
			idle++
			if p.ref.running < threads-1 {
				wrapped++ // the attempts went round the running threads more than once
			}
		}
	}
	// The hard cases must have occurred, or the test proves less than
	// it claims. (One thread is never passed over; in-order never moves rr.)
	if busy == 0 || idle == 0 || (!inOrder && threads > 1 && wrapped == 0) {
		t.Fatalf("seed %d: %d busy cycles, %d idle with threads running, %d of them wrapping", seed, busy, idle, wrapped)
	}
}

// texSendRig is one shader unit between hand-built flows, with the
// test standing in for the FragmentFIFO and the texture crossbar. The
// crossbar side has a single credit, returned one cycle in three, so
// threads pile up in threadWaitSend.
type texSendRig struct {
	sim                             *core.Simulator
	s                               *ShaderUnit
	workIn, workOut, texReq, texRep *Flow
	owed                            int          // texReq credits not yet returned
	replies                         []*TexRepMsg // texture replies, oldest first
	due                             []int64      // the cycle each may be sent
	sends                           [][2]int64   // (cycle, slot) of every request seen
	retired                         int
}

func newTexSendRig(cfg *Config) *texSendRig {
	r := &texSendRig{
		sim:    core.NewSimulator(0),
		workIn: testFlow("t.win", 8, 8, cfg.ThreadsPerShader), workOut: testFlow("t.wout", 8, 8, 8),
		texReq: testFlow("t.treq", 4, 8, 1), texRep: testFlow("t.trep", 4, 8, 8),
	}
	r.s = NewShaderUnit(r.sim, cfg, 0, false, r.workIn, r.workOut, r.texReq, r.texRep)
	return r
}

// after runs the consumer side of cycle c, once the unit was clocked.
func (r *texSendRig) after(c int64) {
	for _, obj := range r.texReq.Recv(c) {
		msg := obj.(*TexReqMsg)
		r.sends = append(r.sends, [2]int64{c, int64(msg.Slot)})
		r.replies = append(r.replies, &TexRepMsg{Shader: msg.Shader, Slot: msg.Slot})
		r.due = append(r.due, c+9)
		r.owed++
	}
	if c%3 == 0 && r.owed > 0 {
		r.texReq.Release(1)
		r.owed--
	}
	for len(r.replies) > 0 && r.due[0] <= c && r.texRep.CanSend(c, 1) {
		r.texRep.Send(c, r.replies[0])
		r.replies, r.due = r.replies[1:], r.due[1:]
	}
	n := len(r.workOut.Recv(c))
	r.workOut.Release(n)
	r.retired += n
	barrier(r.sim, c, r.workIn, r.workOut, r.texReq, r.texRep)
}

// Requests that could not be sent when they were built go out in slot
// order as the crossbar takes them, in the same cycles as under the
// scan the waitSend count replaced: a walk over every slot whenever any
// thread is blocked on a texture, kept here as the model. With four
// issues a cycle and one credit, several threads reach threadWaitSend
// in the same cycle.
func TestPendingTexSendsInSlotOrder(t *testing.T) {
	cfg := BaselineUnified()
	cfg.ThreadsPerShader, cfg.ShaderIssueRate = 12, 4
	fp := isa.MustAssemble(isa.FragmentProgram, "fp", "TEX r0, v4, t0, 2D\nTEX r1, v4.yxzw, t0, 2D\nADD o0, r0, r1\nEND")
	st := &DrawState{FragmentProg: fp}
	st.Textures[0] = &texemu.Texture{}
	batch := newBatchState(1, st, &cfg)

	got, want := newTexSendRig(&cfg), newTexSendRig(&cfg)
	refClock := func(s *ShaderUnit, cycle int64) {
		s.completeTextures(cycle)
		s.acceptWork(cycle)
		if s.blocked != 0 { // sendPendingTex at ab1d5eb
			for i := range s.threads {
				th := &s.threads[i]
				if th.state != threadWaitSend {
					continue
				}
				if !s.texReq.CanSend(cycle, 1) {
					break
				}
				s.texReq.Send(cycle, th.pending)
				th.pending = nil
				s.setState(i, threadBlockedTex)
			}
		}
		s.issue(cycle)
		s.retire(cycle)
	}

	const quads = 60
	fed, together, overtaken := 0, 0, 0
	since := make([]int64, cfg.ThreadsPerShader) // the cycle the slot's thread began waiting to send; 0: it is not
	for c := int64(1); got.retired < quads || want.retired < quads; c++ {
		if c > 20000 {
			t.Fatalf("%d and %d of %d quads retired", got.retired, want.retired, quads)
		}
		for ; fed < quads && got.workIn.CanSend(c, 1); fed++ {
			for _, r := range []*texSendRig{got, want} {
				q := &Quad{Batch: batch, Mask: [4]bool{true, true, true, true}, In: &QuadInputs{}}
				r.workIn.Send(c, &ShaderWork{Batch: batch, Kind: workFragment, Frag: q})
			}
		}
		got.s.Clock(c)
		refClock(want.s, c)

		waiting, entered := 0, 0
		for i := range got.s.threads {
			state := got.s.threads[i].state
			if ref := want.s.threads[i].state; state != ref {
				t.Fatalf("cycle %d slot %d: state %d, reference %d", c, i, state, ref)
			}
			switch {
			case state != threadWaitSend && since[i] != 0:
				// Sent this cycle. Slot order, not age order: did it pass
				// a higher slot that has waited longer and still does?
				for j := i + 1; j < len(since); j++ {
					if since[j] != 0 && since[j] < since[i] && got.s.threads[j].state == threadWaitSend {
						overtaken++
					}
				}
				since[i] = 0
			case state == threadWaitSend:
				waiting++
				if since[i] == 0 {
					since[i] = c
					entered++
				}
			}
		}
		if got.s.waitSend != waiting {
			t.Fatalf("cycle %d: waitSend = %d with %d threads waiting to send", c, got.s.waitSend, waiting)
		}
		if entered > 1 {
			together++
		}
		got.after(c)
		want.after(c)
	}
	if !slices.Equal(got.sends, want.sends) {
		t.Fatalf("requests sent (cycle, slot):\n got %v\nwant %v", got.sends, want.sends)
	}
	if len(got.sends) != 2*quads || got.s.waitSend != 0 {
		t.Fatalf("%d requests for %d quads of two, waitSend %d at the end", len(got.sends), quads, got.s.waitSend)
	}
	// The cases the test is about must have occurred.
	if together == 0 || overtaken == 0 {
		t.Fatalf("%d cycles put several threads into threadWaitSend, %d sends passed an older request in a higher slot", together, overtaken)
	}
}

// The FragmentFIFO's dispatch against the one it replaced, kept here as
// the model: every cycle it walked every shader unit from a pointer it
// then advanced, pending work or not. The box now returns at once with
// nothing pending and derives the start of the walk from the cycle
// number, so it may sleep through idle stretches. Both sides get the
// same bursts of vertex and fragment threads separated by long idle
// gaps; every thread must go to the same unit on the same cycle, with
// the same pointer on every cycle and the same stall counts.

type dispatchRig struct {
	sim      *core.Simulator
	f        *FragmentFIFO
	shaderIn []*Flow
	inFlight [][]rigThread // per unit: the threads it holds
	log      []string
}

type rigThread struct {
	w    *ShaderWork
	done int64
}

func newDispatchRig(t *testing.T, cfg Config) *dispatchRig {
	t.Helper()
	sim := core.NewSimulator(0)
	n := cfg.NumShaders
	if !cfg.UnifiedShaders {
		n += cfg.NumVertexShaders
	}
	flows := func(name string, k int) []*Flow {
		fs := make([]*Flow, k)
		for i := range fs {
			fs[i] = pFlow(sim, "FragmentFIFO", nameIdx(name+"Dst", i), nameIdx(name, i), 4, 1, 0, 64)
		}
		return fs
	}
	r := &dispatchRig{sim: sim, inFlight: make([][]rigThread, n)}
	r.shaderIn = make([]*Flow, n)
	shaderOut := make([]*Flow, n)
	for i := range r.shaderIn {
		r.shaderIn[i] = pFlow(sim, "FragmentFIFO", nameIdx("Shader", i), nameIdx("in", i), 1, 1, 0, 3)
		shaderOut[i] = pFlow(sim, nameIdx("Shader", i), "FragmentFIFO", nameIdx("out", i), 1, 1, 0, 4)
	}
	r.f = NewFragmentFIFO(sim, &cfg, &pipePool{}, NewSurfaceLayout(0, 64, 64),
		pFlow(sim, "Streamer", "FragmentFIFO", "vin", 1, 1, 0, 16),
		pFlow(sim, "Interpolator", "FragmentFIFO", "fin", 1, 1, 0, 32),
		pFlow(sim, "FragmentFIFO", "Streamer", "vout", 1, 1, 0, 16),
		flows("early", cfg.NumROPs), flows("late", cfg.NumROPs), r.shaderIn, shaderOut)
	return r
}

// shaders plays the shader units at the start of a cycle: take what was
// dispatched the cycle before, hold it a while, then give the thread
// slot and the registers back.
func (r *dispatchRig) shaders(cycle int64, rng *rand.Rand) {
	for s, in := range r.shaderIn {
		for _, o := range in.Recv(cycle) {
			w := o.(*ShaderWork)
			r.log = append(r.log, fmt.Sprintf("thread %d unit %d cycle %d", w.ID, s, cycle-1))
			r.inFlight[s] = append(r.inFlight[s], rigThread{w, cycle + int64(1+rng.Intn(40))})
		}
		keep := r.inFlight[s][:0]
		for _, th := range r.inFlight[s] {
			if th.done > cycle {
				keep = append(keep, th)
				continue
			}
			in.Release(1)
			if th.w.VPool {
				r.f.vtxRegs -= th.w.Regs
			} else {
				r.f.fragRegs -= th.w.Regs
			}
		}
		r.inFlight[s] = keep
	}
}

// oldDispatch is FragmentFIFO.dispatch as it was, with its pointer.
func oldDispatch(f *FragmentFIFO, rr *int, cycle int64) {
	n := len(f.shaderIn)
	for k := 0; k < n; k++ {
		s := (*rr + k) % n
		if !f.shaderIn[s].CanSend(cycle, 1) {
			continue
		}
		var w *ShaderWork
		switch {
		case f.vtxPending.Len() > 0 && f.eligible(s, workVertex):
			w = f.vtxPending.Peek()
			if !f.reserveRegs(w) {
				w = nil
			} else {
				f.vtxPending.Pop()
			}
		case f.fragPending.Len() > 0 && f.eligible(s, workFragment):
			w = f.fragPending.Peek()
			if !f.reserveRegs(w) {
				w = nil
			} else {
				f.fragPending.Pop()
			}
		}
		if w == nil {
			continue
		}
		f.shaderIn[s].Send(cycle, w)
		if w.Kind == workVertex {
			f.statVtxThreads.Inc()
		} else {
			f.statFragThreads.Inc()
		}
	}
	*rr = (*rr + 1) % n
}

func TestDispatchMatchesOldWalk(t *testing.T) {
	vp := isa.MustAssemble(isa.VertexProgram, "vp", "MOV r0, v0\nMOV r1, v1\nADD o0, r0, r1\nEND")
	fp := isa.MustAssemble(isa.FragmentProgram, "fp", "MOV r0, v1\nMOV r1, v1\nMOV r2, v1\nADD r0, r0, r1\nADD o0, r0, r2\nEND")
	batch := &BatchState{State: &DrawState{VertexProg: vp, FragmentProg: fp}}
	unified, split := BaselineUnified(), Baseline()
	// Few enough registers that admission stalls (regStallCycles) too.
	unified.PhysRegsFragment, split.PhysRegsFragment, split.PhysRegsVertex = 72, 60, 24
	for _, cfg := range []Config{unified, split} {
		for seed := int64(1); seed <= 3; seed++ {
			model, box := newDispatchRig(t, cfg), newDispatchRig(t, cfg)
			rngM, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			load := rand.New(rand.NewSource(seed + 100))
			var rr int
			var id uint64
			dispatched := 0
			for cycle, burstEnd := int64(0), int64(0); cycle < 30000; cycle++ {
				if cycle > burstEnd && load.Intn(400) == 0 { // a burst, then a long gap
					burstEnd = cycle + int64(20+load.Intn(60))
				}
				model.shaders(cycle, rngM)
				box.shaders(cycle, rngB)
				if cycle <= burstEnd {
					for k := load.Intn(3); k > 0; k-- {
						id++
						kind := workKind(load.Intn(2))
						for _, r := range []*dispatchRig{model, box} {
							w := &ShaderWork{DynObject: core.DynObject{ID: id}, Batch: batch, Kind: kind}
							if kind == workVertex {
								r.f.vtxPending.Push(w)
							} else {
								r.f.fragPending.Push(w)
							}
						}
					}
				}
				if slot := box.f.startSlot(cycle); slot != rr {
					t.Fatalf("%s seed %d cycle %d: scan starts at %d, the old pointer says %d", cfg.Name, seed, cycle, slot, rr)
				}
				oldDispatch(model.f, &rr, cycle)
				box.f.dispatch(cycle)
				for _, r := range []*dispatchRig{model, box} {
					r.sim.EndCycle(cycle)
				}
				dispatched = len(model.log)
			}
			if dispatched < 500 {
				t.Fatalf("%s seed %d: only %d threads dispatched, the test shows nothing", cfg.Name, seed, dispatched)
			}
			if !slices.Equal(box.log, model.log) {
				t.Fatalf("%s seed %d: dispatch differs from the old walk", cfg.Name, seed)
			}
			for _, c := range []struct {
				name      string
				got, want *core.Counter
			}{
				{"vertexThreads", &box.f.statVtxThreads.Counter, &model.f.statVtxThreads.Counter},
				{"fragmentThreads", &box.f.statFragThreads.Counter, &model.f.statFragThreads.Counter},
				{"regStallCycles", &box.f.statRegStall, &model.f.statRegStall},
			} {
				if c.got.Value() != c.want.Value() {
					t.Errorf("%s seed %d: %s = %v, old walk %v", cfg.Name, seed, c.name, c.got.Value(), c.want.Value())
				}
			}
			if model.f.statRegStall.Value() == 0 {
				t.Errorf("%s seed %d: no register stall happened, the test shows less than it says", cfg.Name, seed)
			}
		}
	}
}
