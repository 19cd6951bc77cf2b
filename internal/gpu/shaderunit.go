package gpu

import (
	"math"
	"math/bits"
	"sync/atomic"

	"attila/internal/core"
	"attila/internal/emu/fragemu"
	"attila/internal/emu/shaderemu"
	"attila/internal/emu/texemu"
	"attila/internal/isa"
	"attila/internal/vmath"
)

// TexReqMsg is a quad texture request travelling from a shader unit
// through the texture crossbar to a texture unit.
type TexReqMsg struct {
	core.DynObject
	Shader  int
	Slot    int // thread slot within the shader
	Req     *shaderemu.TexRequest
	Texture *texemu.Texture

	// spent piggybacks a consumed TexRepMsg back to the texture units
	// for recycling. Carries no simulation state.
	spent *TexRepMsg
}

// TexRepMsg carries the filtered texels back.
type TexRepMsg struct {
	core.DynObject
	Shader int
	Slot   int
	Result [shaderLanes]vmath.Vec4

	// spent piggybacks the consumed TexReqMsg back to its issuing
	// shader for recycling.
	spent *TexReqMsg
}

type threadState uint8

const (
	threadFree threadState = iota
	threadRunning
	threadBlockedTex
	threadWaitSend // texture request built, waiting for crossbar room
	threadDone
)

type shaderThread struct {
	state   threadState
	work    *ShaderWork
	emu     *shaderemu.Emulator
	ops     []isa.Decoded       // emu's program, decoded
	pc      int                 // timing PC: the next instruction to issue
	ready   [isa.MaxTemps]int64 // temp register scoreboard
	pending *TexReqMsg

	// The functional side (runahead.go). t is the thread's state; it runs
	// ahead of pc, segment by segment, and is read only after a join.
	t         *shaderemu.Thread
	clean     *bool         // the batch's: its program has run through END here, no fault
	handedOff bool          // a segment went to the helper and is not joined yet
	seg       atomic.Uint32 // that segment's state: segQueued, segRunning, segDone
	// raised is a recovered Step panic and raisedAt the PC of the
	// instruction that raised it, written by whoever ran the segment;
	// faultPC is raisedAt once the timing side has it (settle), else
	// math.MaxInt.
	raised   any
	raisedAt int
	faultPC  int
}

// ShaderUnit is one multithreaded shader processor (paper §2.3): an
// in-order pipeline (fetch, decode, 1-9 execution stages, write back)
// that hides instruction and texture latency by interleaving threads,
// each thread executing a group of four shader inputs in lockstep.
type ShaderUnit struct {
	core.BoxBase
	cfg        *Config
	idx        int
	vertexOnly bool

	workIn  *Flow
	workOut *Flow
	texReq  *Flow // to crossbar (nil for vertex-only units)
	texRep  *Flow // from crossbar

	ahead *runAhead // the Run's helper goroutine; nil outside Pipeline runs

	threads []shaderThread
	sched   issueSched                // which thread issues next; holds rr
	seq     int64                     // threads accepted so far; checkpointed beside rr
	execLat [isa.LatTexture + 1]int64 // cycles per latency class

	// Maintained thread-state class counts (updated by setState) so
	// the per-cycle scheduler can early-out instead of scanning every
	// thread slot: resident = non-free, blocked = waiting on a texture
	// request (sent or pending), waitSend = the blocked ones whose
	// request is still pending.
	resident int
	running  int
	blocked  int
	waitSend int

	// Texture message recycling (no simulation state): completed
	// requests come back on TexRepMsg.spent; consumed replies ride out
	// on the next TexReqMsg.spent. Both lists are this box's alone. A
	// slab of requests is one per thread, the most a unit has out.
	reqs      core.FreeList[TexReqMsg]
	spentReps []*TexRepMsg

	// A slot's thread comes from a slab, on first use, with room for
	// its temporaries.
	slotThreads core.FreeList[slotThread]

	statInstr   core.Progress
	statBusy    core.Counter
	statTexWait core.Counter
	statThreads *core.Gauge
}

// NewShaderUnit builds shader unit idx. vertexOnly marks the
// dedicated vertex shaders of the non-unified model, which have no
// texture path.
func NewShaderUnit(sim *core.Simulator, cfg *Config, idx int, vertexOnly bool,
	workIn, workOut, texReq, texRep *Flow) *ShaderUnit {
	threads := cfg.ThreadsPerShader
	if vertexOnly {
		threads = cfg.VertexThreadsPerShader
	}
	s := &ShaderUnit{
		cfg: cfg, idx: idx, vertexOnly: vertexOnly,
		workIn: workIn, workOut: workOut, texReq: texReq, texRep: texRep,
		threads: make([]shaderThread, threads),
		sched:   newIssueSched(threads, cfg.Schedule == ScheduleInOrderQueue),
	}
	s.reqs.Slab = threads
	s.slotThreads.Slab = 4
	s.execLat = [...]int64{
		isa.LatSimple:  int64(max(cfg.ExecLatSimple, 1)),
		isa.LatMAD:     int64(max(cfg.ExecLatMAD, 1)),
		isa.LatScalar:  int64(max(cfg.ExecLatScalar, 1)),
		isa.LatTexture: 1, // unused: the texture unit decides
	}
	s.Init(nameIdx("Shader", idx))
	sim.Stats.ShadowProgress(&s.statInstr, s.BoxName()+".instructions")
	sim.Stats.ShadowCounter(&s.statBusy, s.BoxName()+".busyCycles")
	sim.Stats.ShadowCounter(&s.statTexWait, s.BoxName()+".texWaitCycles")
	s.statThreads = sim.Stats.Gauge(s.BoxName() + ".threads")
	sim.Register(s)
	return s
}

// Clock implements core.Box.
func (s *ShaderUnit) Clock(cycle int64) {
	s.completeTextures(cycle)
	s.acceptWork(cycle)
	s.sendPendingTex(cycle)
	issued := s.issue(cycle)
	s.retire(cycle)

	s.statThreads.Set(float64(s.resident))
	if issued > 0 {
		s.statBusy.Inc()
	} else if s.resident > 0 && s.blocked == s.resident {
		s.statTexWait.Inc()
		// Every thread waits for its texels, a cycle like this one for
		// each it sleeps through: until a reply or new work is written, or
		// credit folds into texReq for the requests still to be sent.
		if s.waitSend == 0 || s.texReq.OutOfCredit() {
			s.ParkCounting(&s.statTexWait, 1)
		}
	} else if s.running == 0 && s.blocked == 0 {
		// No thread, or finished ones only, which retire above when
		// workOut has credit: until work or credit arrives.
		s.Park()
	}
}

// setState moves the thread in slot i between states, keeping the
// class counts and the issue scheduler in sync. Every state transition
// must go through here.
func (s *ShaderUnit) setState(i int, ns threadState) {
	th := &s.threads[i]
	s.adjCount(th.state, -1)
	s.adjCount(ns, 1)
	if th.state == threadFree {
		s.sched.arrive(i)
	} else if ns == threadDone {
		s.sched.finish(i)
	}
	th.state = ns
	if ns == threadRunning {
		s.sched.run(i, s.wake(th))
	} else {
		s.sched.stop(i)
	}
}

// wake returns the first cycle the thread's next instruction may issue:
// the latest ready[] among the temps that instruction reads or
// overwrites, or never for a texture instruction on a unit with no
// texture path. It changes only when the thread issues, arrives or
// gets its texels back.
func (s *ShaderUnit) wake(th *shaderThread) int64 {
	op := &th.ops[th.pc]
	wake := int64(0)
	if op.Texture && s.texReq == nil {
		wake = math.MaxInt64
	}
	for _, r := range op.Deps[:op.NDeps] {
		wake = max(wake, th.ready[r])
	}
	return wake
}

func (s *ShaderUnit) adjCount(st threadState, d int) {
	switch st {
	case threadFree:
	case threadRunning:
		s.resident += d
		s.running += d
	case threadBlockedTex:
		s.resident += d
		s.blocked += d
	case threadWaitSend:
		s.resident += d
		s.blocked += d
		s.waitSend += d
	case threadDone:
		s.resident += d
	}
}

func (s *ShaderUnit) completeTextures(cycle int64) {
	if s.texRep == nil {
		return
	}
	for _, obj := range s.texRep.Recv(cycle) {
		rep := obj.(*TexRepMsg)
		s.texRep.Release(1)
		th := &s.threads[rep.Slot]
		if th.state != threadBlockedTex {
			panic("gpu: texture reply for non-blocked thread")
		}
		dst := th.t.Blocked.Dst
		th.emu.CompleteTexture(th.t, rep.Result)
		if dst.Bank == isa.BankTemp {
			th.ready[dst.Index] = cycle + 1
		}
		s.dispatch(th)
		s.setState(rep.Slot, threadRunning)
		if sp := rep.spent; sp != nil {
			rep.spent = nil
			s.reqs.Put(sp)
		}
		s.spentReps = append(s.spentReps, rep)
	}
}

func (s *ShaderUnit) acceptWork(cycle int64) {
	for _, obj := range s.workIn.Recv(cycle) {
		w := obj.(*ShaderWork)
		slot := -1
		for i := range s.threads {
			if s.threads[i].state == threadFree {
				slot = i
				break
			}
		}
		if slot < 0 {
			panic("gpu: shader received work with no free thread (flow credits broken)")
		}
		th := &s.threads[slot]
		emu, clean := w.Batch.fragEmu, &w.Batch.fragClean
		if w.Kind == workVertex {
			emu, clean = w.Batch.vtxEmu, &w.Batch.vtxClean
		}
		th.work = w
		th.emu = emu
		th.ops = emu.Program().Decoded()
		th.pc = 0
		th.clean = clean
		th.raised, th.faultPC = nil, math.MaxInt
		if th.t == nil {
			st := s.slotThreads.Get()
			st.t.Temp = st.regs[:0]
			th.t = &st.t
		}
		th.t.Reset(emu.Program().TempsUsed())
		for i := range th.ready {
			th.ready[i] = 0
		}
		if w.Kind == workVertex {
			for l := 0; l < w.Vtx.Count; l++ {
				th.t.Active[l] = true
				th.t.In[l] = w.Vtx.In[l]
			}
		} else {
			// All four lanes run, including dead ones: texture
			// derivatives need complete quads (§2.2).
			for l := 0; l < shaderLanes; l++ {
				th.t.Active[l] = true
				th.t.In[l] = w.Frag.In[l]
			}
		}
		s.dispatch(th)
		s.setState(slot, threadRunning)
		s.seq++
	}
}

// slotThread is a thread with room for eight temporaries, what real
// programs use at most (isa.MaxTemps): Reset keeps a program that fits
// in that room from allocating. Slabs of four of them keep a unit that
// fills few of its slots from paying for the rest.
type slotThread struct {
	t    shaderemu.Thread
	regs [8]shaderemu.Reg
}

// getTexReq takes a zeroed request message and gives a waiting spent
// reply its ride back to the texture units.
func (s *ShaderUnit) getTexReq() *TexReqMsg {
	msg := s.reqs.Get()
	if n := len(s.spentReps); n > 0 {
		msg.spent = s.spentReps[n-1]
		s.spentReps = s.spentReps[:n-1]
	}
	return msg
}

func (s *ShaderUnit) sendPendingTex(cycle int64) {
	if s.waitSend == 0 {
		return
	}
	for i := range s.threads {
		th := &s.threads[i]
		if th.state != threadWaitSend {
			continue
		}
		if !s.texReq.CanSend(cycle, 1) {
			return
		}
		s.texReq.Send(cycle, th.pending)
		th.pending = nil
		s.setState(i, threadBlockedTex)
	}
}

// issue executes up to ShaderIssueRate instructions this cycle, each
// from the thread the scheduler picks.
func (s *ShaderUnit) issue(cycle int64) int {
	if s.running == 0 {
		return 0
	}
	issued := 0
	for attempts := len(s.threads); issued < s.cfg.ShaderIssueRate; issued++ {
		i := s.sched.pick(cycle, &attempts)
		if i < 0 {
			break
		}
		s.execute(cycle, i)
	}
	return issued
}

// execute issues the next instruction of running thread i, from the
// decoded program: the functional side has run it already, or will by
// the join.
func (s *ShaderUnit) execute(cycle int64, i int) {
	th := &s.threads[i]
	op := &th.ops[th.pc]
	if op.Texture {
		th.join() // the request carries the coordinates
	}
	if th.pc >= th.faultPC {
		panic(th.raised) // where Step raised it
	}
	th.pc++
	s.statInstr.Inc()
	switch {
	case op.Texture:
		msg := s.getTexReq()
		msg.DynObject = core.DynObject{ID: th.work.ID, Parent: th.work.Parent, Tag: "texreq"}
		msg.Shader, msg.Slot = s.idx, i
		msg.Req = th.t.Blocked
		msg.Texture = th.work.Batch.State.Textures[op.Sampler]
		if s.texReq.CanSend(cycle, 1) {
			s.texReq.Send(cycle, msg)
			s.setState(i, threadBlockedTex)
		} else {
			th.pending = msg
			s.setState(i, threadWaitSend)
		}
	case op.Op == isa.END:
		s.setState(i, threadDone)
	default:
		if op.HasDst && op.Dst.Bank == isa.BankTemp {
			th.ready[op.Dst.Index] = cycle + s.execLat[op.Lat]
		}
		s.sched.wakeAt[i] = s.wake(th)
	}
}

func (s *ShaderUnit) retire(cycle int64) {
	if s.resident-s.running-s.blocked == 0 {
		return
	}
	for i := range s.threads {
		th := &s.threads[i]
		if th.state != threadDone {
			continue
		}
		if !s.workOut.CanSend(cycle, 1) {
			return
		}
		th.join() // the outputs and the KIL mask
		if th.faultPC != math.MaxInt {
			panic(th.raised)
		}
		w := th.work
		if w.Kind == workVertex {
			for l := 0; l < w.Vtx.Count; l++ {
				w.Vtx.Out[l] = th.t.Out[l]
			}
		} else {
			prog := th.emu.Program()
			writesDepth := prog.Outputs()&(1<<isa.FragOutDepth) != 0
			for l := 0; l < shaderLanes; l++ {
				w.Frag.Color[l] = th.t.Out[l][isa.FragOutColor]
				if th.t.Killed[l] {
					w.Frag.Mask[l] = false
				}
				if writesDepth {
					w.Frag.Depth[l] = fragemu.DepthToFixed(th.t.Out[l][isa.FragOutDepth][0])
				}
			}
		}
		s.workOut.Send(cycle, w)
		s.setState(i, threadFree)
		th.work = nil
		s.workIn.Release(1) // thread slot is free again
	}
}

// issueSched picks the thread a shader unit issues from. The thread
// window configuration issues from any ready thread, round robin
// (hiding texture latency); the in-order input queue configuration
// only ever executes the oldest resident thread, stalling while it
// waits (§5).
//
// Which thread issues, and where rr points afterwards, is part of the
// determinism contract and is defined by the scheduler this one
// replaced (kept as the reference model in scheduling_test.go): up to
// len(threads) attempts per cycle, each taking the next running thread
// at or after rr, moving rr past it, and issuing it if its scoreboard
// allows. So an attempt is spent on every running thread passed over,
// and when none can issue the attempts keep cycling over the running
// threads until they are used up, which is where rr comes to rest.
type issueSched struct {
	rr     int
	runSet []uint64 // bit i is set exactly while thread i is running
	wakeAt []int64  // for a running thread, the first cycle it may issue

	// In-order input queue only: the slots of the threads not yet
	// finished, oldest first. Only the oldest ever executes, so threads
	// finish in arrival order and the ring pops where it pushes.
	order               []int32
	orderHead, orderLen int
}

func newIssueSched(threads int, inOrder bool) issueSched {
	q := issueSched{runSet: make([]uint64, (threads+63)/64), wakeAt: make([]int64, threads)}
	if inOrder {
		q.order = make([]int32, threads)
	}
	return q
}

func (q *issueSched) run(i int, wake int64) {
	q.runSet[i>>6] |= 1 << (i & 63)
	q.wakeAt[i] = wake
}

func (q *issueSched) stop(i int) { q.runSet[i>>6] &^= 1 << (i & 63) }

func (q *issueSched) arrive(i int) {
	if q.order != nil {
		q.order[(q.orderHead+q.orderLen)%len(q.order)] = int32(i)
		q.orderLen++
	}
}

func (q *issueSched) finish(i int) {
	if q.order == nil {
		return
	}
	if q.orderLen == 0 || q.order[q.orderHead] != int32(i) {
		panic("gpu: in-order shader thread finished out of order")
	}
	q.orderHead = (q.orderHead + 1) % len(q.order)
	q.orderLen--
}

// pick returns the slot to issue from at cycle, or -1 when no thread
// can, taking what the search cost out of the cycle's attempts.
func (q *issueSched) pick(cycle int64, attempts *int) int {
	if *attempts <= 0 {
		return -1
	}
	if q.order != nil {
		if q.orderLen == 0 {
			return -1
		}
		i := int(q.order[q.orderHead])
		if q.runSet[i>>6]&(1<<(i&63)) == 0 || q.wakeAt[i] > cycle {
			return -1
		}
		*attempts--
		return i
	}
	i, last, tried := q.scan(*attempts, cycle)
	if tried == 0 {
		return -1 // nothing is running
	}
	if i < 0 && tried < *attempts {
		// Every running thread was tried once and the attempts go round
		// again; the last of them decides rr.
		_, last, _ = q.scan((*attempts-1)%tried+1, -1)
		tried = *attempts
	}
	*attempts -= tried
	if q.rr = last + 1; q.rr == len(q.wakeAt) {
		q.rr = 0
	}
	return i
}

// scan visits the running threads in slot order starting at rr and
// wrapping once, at most limit of them, looking for one that may issue
// at cycle. It returns that slot (-1 if none), the last slot visited
// and how many were visited.
func (q *issueSched) scan(limit int, cycle int64) (found, last, visited int) {
	before := uint64(1)<<(q.rr&63) - 1 // rr's word: the slots before rr
	w := q.rr >> 6
	word := q.runSet[w] &^ before
	for n := len(q.runSet); ; n-- {
		for ; word != 0; word &= word - 1 {
			last = w<<6 + bits.TrailingZeros64(word)
			visited++
			if q.wakeAt[last] <= cycle {
				return last, last, visited
			}
			if visited == limit {
				return -1, last, visited
			}
		}
		if n == 0 {
			return -1, last, visited
		}
		if w++; w == len(q.runSet) {
			w = 0
		}
		word = q.runSet[w]
		if n == 1 { // wrapped round to rr's word
			word &= before
		}
	}
}
