package mem

import (
	"fmt"

	"attila/internal/core"
	"attila/internal/obsv/trace"
)

// Op distinguishes read and write transactions.
type Op uint8

// Transaction operations.
const (
	OpRead Op = iota
	OpWrite
)

// Request is a memory transaction travelling from a client unit to
// the memory controller. The port owns Data: Port.Write copies the
// caller's payload into the request's own buffer, so callers are free
// to reuse theirs immediately.
type Request struct {
	core.DynObject
	Op   Op
	Addr uint32
	Size int    // bytes, <= TransactionSize
	Data []byte // writes only; a window of buf
	buf  [TransactionSize]byte

	// spent piggybacks a consumed Reply back to the controller for
	// recycling. Carries no simulation state; see the recycling notes
	// on Controller.
	spent *Reply

	// span is the lifecycle trace record of a sampled transaction
	// (nil for the unsampled rest). Like spent it carries no
	// simulation state and rides the object through the signals, so
	// whoever owns the transaction owns the span.
	span *trace.Span
}

// Reply carries read data (or a write acknowledgement) back to the
// requesting unit. ReqID matches the request's DynObject ID.
type Reply struct {
	core.DynObject
	ReqID uint64
	Op    Op
	Addr  uint32
	Size  int
	Data  []byte // reads only; a window of buf
	buf   [TransactionSize]byte

	// spent piggybacks the completed Request back to its issuing port
	// for recycling.
	spent *Request

	// span continues the request's trace record on the reply leg
	// (moved off the request at completion).
	span *trace.Span
}

// ControllerConfig is the GDDR3-style timing model (paper §2.2): four
// channels of 16 bytes/cycle in the baseline, modules interleaved on
// a 256-byte basis, configurable penalties for opening a new page and
// for read/write bus turnarounds.
type ControllerConfig struct {
	Channels      int
	ChannelBW     int    // bytes per cycle per channel
	Interleave    uint32 // channel interleave granularity in bytes
	PageSize      uint32 // bytes per open page (row)
	PagePenalty   int    // cycles to open a new page
	ReadToWrite   int    // bus turnaround penalty cycles
	WriteToRead   int
	BaseLatency   int // fixed command/CAS latency added to each transaction
	QueuePerUnit  int // per-client request queue capacity
	ReplyQueueLen int // max replies delivered per client per cycle
}

// DefaultControllerConfig returns the baseline of Table 1: four
// channels x 16 bytes/cycle.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		Channels:      4,
		ChannelBW:     16,
		Interleave:    256,
		PageSize:      4096,
		PagePenalty:   8,
		ReadToWrite:   4,
		WriteToRead:   6,
		BaseLatency:   10,
		QueuePerUnit:  16,
		ReplyQueueLen: 4,
	}
}

type channelState struct {
	busyUntil int64
	openPage  uint32
	hasPage   bool
	lastOp    Op
	issued    bool // a first op pays no turnaround (zero lastOp is OpRead)
	active    bool // current holds an in-flight transaction
	current   inflight
}

type inflight struct {
	req    *Request
	client int
	done   int64
	dup    bool // injected fault: deliver the reply twice
}

// FaultAction tells the controller how to mistreat one transaction.
// The zero value means "handle normally".
type FaultAction struct {
	Drop         bool // dequeue the request and never answer it
	ExtraLatency int  // stretch the channel occupancy by this many cycles
	Duplicate    bool // deliver the reply twice in the same cycle
}

// TxFault is the memory-side fault-injection seam consulted once per
// scheduled transaction. Implemented by the chaos engine
// (internal/chaos); nil means no faults. Called from the controller's
// Clock.
type TxFault interface {
	OnTransaction(cycle int64, client string, addr uint32, write bool) FaultAction
}

// SetFault installs (or clears, with nil) the transaction fault
// injector. Call before Run.
func (c *Controller) SetFault(f TxFault) { c.fault = f }

// Controller is the memory controller box. Each client unit provides
// a request signal named "<client>.MemReq" and binds the reply signal
// "MC.<client>.Reply"; the controller binds and provides the
// counterparts, forming the crossbar of queues and buses the paper
// describes.
type Controller struct {
	core.BoxBase
	cfg     ControllerConfig
	mem     *GPUMemory
	ids     *core.IDSource
	clients []*mcClient
	chans   []channelState
	queued  int     // requests in the client queues, all clients together
	rr      int     // round-robin arbitration pointer
	fault   TxFault // optional chaos seam, consulted per scheduled transaction

	// Transaction recycling (no simulation state): a completed Request
	// rides back to its issuing port on Reply.spent; a consumed Reply
	// rides back here on Request.spent, through the signals like any
	// other payload. Chaos faults that drop or corrupt objects in flight
	// simply leak them. Replies come a client queue's worth at a time.
	replies core.FreeList[Reply]

	statReadBytes  core.Progress
	statWriteBytes core.Progress
	statPageMiss   core.Counter
	statTurnaround core.Counter
	statBusy       core.Counter
	// Pre-sized before registration: ShadowCounter keeps the element
	// addresses, so these slices must never be reallocated.
	clientRead  []core.Counter
	clientWrite []core.Counter
}

type mcClient struct {
	name  string
	req   *core.Signal
	reply *core.Signal
	queue core.FIFO[*Request]
}

// NewController creates the controller and registers its signal
// endpoints for every client name.
func NewController(sim *core.Simulator, cfg ControllerConfig, mem *GPUMemory, clients []string) *Controller {
	c := &Controller{cfg: cfg, mem: mem, ids: &sim.IDs}
	c.replies.Slab = cfg.QueuePerUnit
	c.Init("MemoryController")
	c.chans = make([]channelState, cfg.Channels)
	// One transaction can complete on each channel in the same cycle,
	// all for the same client, so the reply wire must carry at least
	// Channels objects per cycle regardless of ReplyQueueLen.
	replyBW := cfg.ReplyQueueLen
	if cfg.Channels > replyBW {
		replyBW = cfg.Channels
	}
	c.clientRead = make([]core.Counter, len(clients))
	c.clientWrite = make([]core.Counter, len(clients))
	for i, name := range clients {
		cl := &mcClient{name: name}
		sim.Binder.Bind(c.BoxName(), name+".MemReq", &cl.req)
		cl.reply = sim.Binder.Provide(c.BoxName(), "MC."+name+".Reply", replyBW, 1, 0)
		c.clients = append(c.clients, cl)
		sim.Stats.ShadowCounter(&c.clientRead[i], "MC."+name+".readBytes")
		sim.Stats.ShadowCounter(&c.clientWrite[i], "MC."+name+".writeBytes")
	}
	sim.Stats.ShadowProgress(&c.statReadBytes, "MC.readBytes")
	sim.Stats.ShadowProgress(&c.statWriteBytes, "MC.writeBytes")
	sim.Stats.ShadowCounter(&c.statPageMiss, "MC.pageMisses")
	sim.Stats.ShadowCounter(&c.statTurnaround, "MC.turnarounds")
	sim.Stats.ShadowCounter(&c.statBusy, "MC.busyCycles")
	sim.Register(c)
	return c
}

// Pending reports whether any transaction is queued or in flight;
// used by drain logic at batch boundaries.
func (c *Controller) Pending() bool {
	if c.queued > 0 {
		return true
	}
	for i := range c.chans {
		if c.chans[i].active {
			return true
		}
	}
	return false
}

// Introspect implements core.Introspector: cycles with at least one
// channel transferring, and per-client request queue occupancy plus the
// busy channels, the controller-side half of a deadlock report.
// Transferred bytes are forward progress (ShadowProgress): they advance
// while a long transaction occupies its channel with no signal traffic.
func (c *Controller) Introspect() core.BoxInfo {
	queues := func() []core.QueueStat {
		qs := make([]core.QueueStat, 0, len(c.clients)+1)
		for _, cl := range c.clients {
			qs = append(qs, core.QueueStat{
				Name: "MC." + cl.name + ".queue", Occupied: cl.queue.Len(), Capacity: c.cfg.QueuePerUnit,
			})
		}
		busy := 0
		for i := range c.chans {
			if c.chans[i].active {
				busy++
			}
		}
		return append(qs, core.QueueStat{Name: "MC.channels", Occupied: busy, Capacity: c.cfg.Channels})
	}
	return core.BoxInfo{Busy: &c.statBusy, Queues: queues}
}

func (c *Controller) channelOf(addr uint32) int {
	return int(addr/c.cfg.Interleave) % c.cfg.Channels
}

// Clock implements core.Box.
func (c *Controller) Clock(cycle int64) {
	// Accept new requests into per-client queues.
	for _, cl := range c.clients {
		for _, obj := range cl.req.Read(cycle) {
			req, ok := obj.(*Request)
			if !ok {
				panic(fmt.Sprintf("mem: non-Request on %s.MemReq", cl.name))
			}
			if req.Size <= 0 || req.Size > TransactionSize {
				panic(fmt.Sprintf("mem: bad transaction size %d from %s", req.Size, cl.name))
			}
			if cl.queue.Len() >= c.cfg.QueuePerUnit {
				panic(fmt.Sprintf("mem: %s exceeded its request queue (%d); client must bound outstanding requests", cl.name, c.cfg.QueuePerUnit))
			}
			if sp := req.spent; sp != nil {
				req.spent = nil
				c.replies.Put(sp)
			}
			if req.span != nil {
				req.span.Enqueue = cycle
			}
			cl.queue.Push(req)
			c.queued++
		}
	}

	// Complete transactions whose channel time has elapsed.
	busy := false
	for i := range c.chans {
		ch := &c.chans[i]
		if ch.active {
			busy = true
			if cycle >= ch.current.done {
				c.complete(cycle, &ch.current)
				ch.active = false
			}
		}
	}
	if busy {
		c.statBusy.Inc()
	}

	// Arbitrate free channels: round-robin over client queue heads,
	// while any client has a request queued.
	for i := 0; i < len(c.chans) && c.queued > 0; i++ {
		if ch := &c.chans[i]; !ch.active {
			c.schedule(cycle, i, ch)
		}
	}
	// Nothing queued, no channel transferring: only a request on one of
	// the client wires, all bound under this box's name, changes that.
	if !c.Pending() {
		c.Park()
		return
	}
	// Every channel that could serve a queued request is transferring:
	// each Clock until the first completes would only count a busy
	// cycle. Sleep until then, or until a request arrives.
	if done, ok := c.nextDone(); ok && done > cycle+1 {
		c.ParkCounting(&c.statBusy, 1)
		c.ParkUntil(done)
	}
}

// nextDone returns the cycle the first busy channel completes, and
// false when no channel is busy or a free one has a queue head it
// could serve: arbitration can leave one, when a pop uncovers a head
// for a channel it has passed, or a dropped transaction frees one.
func (c *Controller) nextDone() (int64, bool) {
	var done int64
	busy := false
	for i := range c.chans {
		ch := &c.chans[i]
		if ch.active {
			if !busy || ch.current.done < done {
				done = ch.current.done
			}
			busy = true
			continue
		}
		if c.queued == 0 {
			continue
		}
		for _, cl := range c.clients {
			if cl.queue.Len() > 0 && c.channelOf(cl.queue.Peek().Addr) == i {
				return 0, false
			}
		}
	}
	return done, busy
}

func (c *Controller) schedule(cycle int64, chIdx int, ch *channelState) {
	n := len(c.clients)
	for k := 0; k < n; k++ {
		ci := c.rr + k
		if ci >= n {
			ci -= n
		}
		cl := c.clients[ci]
		if cl.queue.Len() == 0 {
			continue
		}
		req := cl.queue.Peek()
		if c.channelOf(req.Addr) != chIdx {
			continue
		}
		cl.queue.Pop()
		c.queued--
		c.rr = (ci + 1) % n

		var fa FaultAction
		if c.fault != nil {
			fa = c.fault.OnTransaction(cycle, cl.name, req.Addr, req.Op == OpWrite)
		}
		if fa.Drop {
			// The request vanishes: the client's outstanding budget never
			// drains, so the pipeline backs up and the watchdog reports a
			// deadlock — the observable signature of a lost transaction.
			// A span riding it leaks with it, like the request itself.
			return
		}
		if req.span != nil {
			req.span.Sched = cycle
		}

		dur := (req.Size + c.cfg.ChannelBW - 1) / c.cfg.ChannelBW
		dur += fa.ExtraLatency
		page := req.Addr / c.cfg.PageSize
		if !ch.hasPage || ch.openPage != page {
			dur += c.cfg.PagePenalty
			ch.openPage = page
			ch.hasPage = true
			c.statPageMiss.Inc()
		}
		if ch.issued && ch.lastOp != req.Op {
			if req.Op == OpWrite {
				dur += c.cfg.ReadToWrite
			} else {
				dur += c.cfg.WriteToRead
			}
			c.statTurnaround.Inc()
		}
		ch.lastOp = req.Op
		ch.issued = true
		dur += c.cfg.BaseLatency
		ch.current = inflight{req: req, client: ci, done: cycle + int64(dur), dup: fa.Duplicate}
		ch.active = true
		return
	}
}

func (c *Controller) complete(cycle int64, fl *inflight) {
	req := fl.req
	cl := c.clients[fl.client]
	reply := c.replies.Get()
	reply.DynObject = core.DynObject{ID: c.ids.Next(), Parent: req.ID, Tag: "memreply"}
	reply.ReqID = req.ID
	reply.Op = req.Op
	reply.Addr = req.Addr
	reply.Size = req.Size
	if req.Op == OpWrite {
		c.mem.WriteBytes(req.Addr, req.Data[:req.Size])
		c.statWriteBytes.Add(float64(req.Size))
		c.clientWrite[fl.client].Add(float64(req.Size))
	} else {
		reply.Data = reply.buf[:req.Size]
		c.mem.ReadBytes(req.Addr, reply.Data)
		c.statReadBytes.Add(float64(req.Size))
		c.clientRead[fl.client].Add(float64(req.Size))
	}
	// The completed request rides the reply back to its issuing port,
	// and a trace span moves to the reply leg with it.
	reply.spent = req
	if sp := req.span; sp != nil {
		sp.Complete = cycle
		reply.span = sp
		req.span = nil
	}
	cl.reply.Write(cycle, reply)
	if fl.dup {
		// Injected duplicate: a second reply with a fresh ID for the
		// same request. The client's bookkeeping (outstanding budget,
		// miss table) breaks on the echo and panics, which the
		// simulator reports as a crash in the client box. The echo
		// must not alias the recycling fields: the request may ride
		// back only once.
		echo := *reply
		echo.DynObject.ID = c.ids.Next()
		echo.spent = nil
		echo.span = nil
		if reply.Data != nil {
			echo.Data = echo.buf[:len(reply.Data)]
		}
		cl.reply.Write(cycle, &echo)
	}
}

// Port is a client-side connection to the memory controller: it owns
// the request signal, tracks outstanding transactions against the
// controller's queue bound and collects replies.
//
// The port recycles transaction objects: completed Requests come back
// on Reply.spent and are reused by Read/Write; consumed Replies ride
// out on Request.spent for the controller to reuse. The slice handed
// out by Replies and the replies in it are valid until the next
// Replies call — every client consumes them inside the same Clock.
type Port struct {
	name        string
	req         *core.Signal
	reply       *core.Signal
	ids         *core.IDSource
	outstanding int
	limit       int
	tr          *trace.Tracer // nil: tracing off, one branch per issue

	reqs     core.FreeList[Request] // a slab holds the most a port has out
	spentRep []*Reply               // consumed replies awaiting a ride back
	out      []*Reply               // reusable result buffer for Replies
}

// NewPort registers the client side of a controller connection. Call
// before or after NewController in any order; limit must not exceed
// the controller's QueuePerUnit.
func NewPort(sim *core.Simulator, client string, limit int) *Port {
	p := &Port{name: client, ids: &sim.IDs, limit: limit}
	p.reqs.Slab = limit
	// The request wire can burst up to the outstanding budget in one
	// cycle (cache flushes issue a whole line's transactions at
	// once); the controller's queues provide the real throttling.
	p.req = sim.Binder.Provide(client, client+".MemReq", limit, 1, 0)
	sim.Binder.Bind(client, "MC."+client+".Reply", &p.reply)
	return p
}

// SetTracer installs the port's span tracing handle (nil disables).
// Call before Run; the tracer's sampler decides per issue whether a
// transaction carries a span.
func (p *Port) SetTracer(t *trace.Tracer) { p.tr = t }

// CanIssue reports whether another transaction fits in the client's
// outstanding budget.
func (p *Port) CanIssue() bool { return p.outstanding < p.limit }

// Free returns how many transactions may still be issued.
func (p *Port) Free() int { return p.limit - p.outstanding }

// getReq takes a zeroed Request and gives a waiting spent Reply its
// ride back to the controller.
func (p *Port) getReq() *Request {
	req := p.reqs.Get()
	if n := len(p.spentRep); n > 0 {
		req.spent = p.spentRep[n-1]
		p.spentRep = p.spentRep[:n-1]
	}
	return req
}

// Read issues a read transaction and returns its id. parent links the
// transaction to the object that caused it for signal tracing.
func (p *Port) Read(cycle int64, addr uint32, size int, parent uint64) uint64 {
	req := p.getReq()
	req.DynObject = core.DynObject{ID: p.ids.Next(), Parent: parent, Tag: "rd"}
	req.Op, req.Addr, req.Size = OpRead, addr, size
	if p.tr != nil {
		req.span = p.tr.Start(trace.KindRead, cycle, addr)
	}
	p.req.Write(cycle, req)
	p.outstanding++
	return req.ID
}

// Write issues a write transaction of len(data) bytes. The payload is
// copied into a request-owned buffer; the caller keeps ownership of
// data and may reuse it immediately.
func (p *Port) Write(cycle int64, addr uint32, data []byte, parent uint64) uint64 {
	req := p.getReq()
	req.DynObject = core.DynObject{ID: p.ids.Next(), Parent: parent, Tag: "wr"}
	req.Op, req.Addr, req.Size = OpWrite, addr, len(data)
	req.Data = append(req.buf[:0], data...)
	if p.tr != nil {
		req.span = p.tr.Start(trace.KindWrite, cycle, addr)
	}
	p.req.Write(cycle, req)
	p.outstanding++
	return req.ID
}

// Replies returns the transactions completed this cycle. The returned
// slice and the replies in it are recycled at the next Replies call;
// callers must finish with them within their own Clock (they all do —
// reply payloads are copied into cache lines or frames on the spot).
func (p *Port) Replies(cycle int64) []*Reply {
	// The previous batch is consumed by now: queue it for recycling.
	for _, rep := range p.out {
		p.spentRep = append(p.spentRep, rep)
	}
	p.out = p.out[:0]
	objs := p.reply.Read(cycle)
	if len(objs) == 0 {
		return nil
	}
	for _, o := range objs {
		rep := o.(*Reply)
		if sp := rep.spent; sp != nil {
			rep.spent = nil
			p.reqs.Put(sp)
		}
		if sp := rep.span; sp != nil {
			rep.span = nil
			sp.Finish(cycle)
		}
		p.out = append(p.out, rep)
		p.outstanding--
	}
	return p.out
}

// Idle reports that Replies would neither find nor recycle anything.
func (p *Port) Idle() bool { return p.outstanding == 0 && len(p.out) == 0 }

// Outstanding returns the number of in-flight transactions.
func (p *Port) Outstanding() int { return p.outstanding }
