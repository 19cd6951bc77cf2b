package gpu

import (
	"slices"

	"attila/internal/core"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/vmath"
)

// Streamer is the vertex front end (paper §2.2): it fetches input
// vertex attribute data from memory, converts it to the internal
// 4-float format and issues vertices for shading, reusing results of
// indexed vertices through a post-shading vertex cache. Shaded
// vertices are committed to Primitive Assembly in input order
// (StreamerLoader and StreamerCommit folded into one box).
type Streamer struct {
	core.BoxBase
	cfg   *Config
	gm    *mem.GPUMemory
	ids   *core.IDSource
	pool  *pipePool
	fetch *mem.Cache // 64-byte attribute/index fetch buffer

	cmdIn    *Flow // draw commands from CP
	shadeOut *Flow // vertex groups to FragmentFIFO
	shadeIn  *Flow // shaded groups back
	vtxOut   *Flow // ordered vertices to Primitive Assembly

	cmdQ  core.FIFO[*BatchState]
	batch *BatchState
	seq   int // next vertex ordinal to fetch

	// Post-shading vertex cache, oldest entry first, at most
	// Config.VertexCacheEntries of them; each batch starts it empty.
	vcache []vcacheEntry

	// Group being accumulated for shading.
	group *VtxGroup

	// Reorder ring: seq's shaded outputs wait in rob[seq&(len(rob)-1)]
	// until every earlier seq is committed. It has a slot for every seq
	// in [commit, seq] and doubles when it would not.
	rob     []robSlot
	commit  int // next seq to send to PA
	fetchSt struct {
		active bool
		index  uint32
		lines  []uint32
		looked bool
	}

	statVtx       core.Progress
	statVCacheHit core.Progress
	statVCacheMis core.Progress
	statBusy      core.Counter
}

// vcacheEntry is one vertex of the post-shading cache: pending while
// its shading is in flight, collecting the seqs that hit it meanwhile.
type vcacheEntry struct {
	index   uint32
	pending bool
	waiters []int
	out     [isa.MaxOutputs]vmath.Vec4
}

// robSlot is one seq of the reorder ring.
type robSlot struct {
	ready bool
	out   [isa.MaxOutputs]vmath.Vec4
}

// NewStreamer builds the box; flows are provided by the pipeline
// wiring.
func NewStreamer(sim *core.Simulator, cfg *Config, pool *pipePool, gm *mem.GPUMemory,
	cmdIn, shadeOut, shadeIn, vtxOut *Flow) *Streamer {
	s := &Streamer{
		cfg: cfg, gm: gm, ids: &sim.IDs, pool: pool,
		cmdIn: cmdIn, shadeOut: shadeOut, shadeIn: shadeIn, vtxOut: vtxOut,
		vcache: make([]vcacheEntry, 0, max(cfg.VertexCacheEntries, 0)),
		rob:    make([]robSlot, 16),
	}
	s.Init("Streamer")
	fc := mem.CacheConfig{
		Name: "Streamer", Sets: cfg.VertexFetchLines / 2, Assoc: 2, // the box's own name: no Owner
		LineBytes: 64, MissQ: 8, PortLimit: 8,
	}
	s.fetch = mem.NewCache(sim, fc, mem.PassThrough{})
	sim.Stats.ShadowProgress(&s.statVtx, "Streamer.vertices")
	sim.Stats.ShadowProgress(&s.statVCacheHit, "Streamer.vcacheHits")
	sim.Stats.ShadowProgress(&s.statVCacheMis, "Streamer.vcacheMisses")
	sim.Stats.ShadowCounter(&s.statBusy, "Streamer.busyCycles")
	sim.Register(s)
	return s
}

// Clock implements core.Box.
func (s *Streamer) Clock(cycle int64) {
	s.fetch.Clock(cycle)

	// Drain the command wire every cycle; start the next batch when
	// idle.
	for _, obj := range s.cmdIn.Recv(cycle) {
		s.cmdQ.Push(obj.(*BatchState))
	}
	if s.batch == nil && s.cmdQ.Len() > 0 {
		s.startBatch(s.cmdQ.Pop())
		s.cmdIn.Release(1)
	}

	// Collect shaded vertex groups: their outputs are copied into the
	// reorder ring and the vertex cache. The groups go back to the pool
	// only after this cycle's fetch, so none is reused, its DynObject
	// rewritten, before the cycle's signal trace has read it.
	shaded := s.shadeIn.Recv(cycle)
	for _, obj := range shaded {
		g := obj.(*VtxGroup)
		s.shadeIn.Release(1)
		for l := 0; l < g.Count; l++ {
			s.setReady(g.Seq[l], &g.Out[l])
			g.Batch.ShadedVerts++
		}
		s.resolveShaded(g)
	}
	s.step(cycle)
	for _, obj := range shaded {
		s.pool.groups.Put(obj.(*VtxGroup))
	}
}

// step commits, fetches and finishes the current batch.
func (s *Streamer) step(cycle int64) {
	if s.batch == nil {
		// Until a draw is written to cmdIn (shadeIn is silent between
		// batches) or a reply to the fetch cache's port.
		if s.cmdQ.Len() == 0 && s.fetch.Still() {
			s.Park()
		}
		return
	}
	busy := false

	// Commit shaded vertices to Primitive Assembly in order.
	if r := s.slot(s.commit); r.ready && s.vtxOut.CanSend(cycle, 1) {
		sv := s.pool.vertices.Get()
		sv.DynObject = core.DynObject{ID: s.ids.Next(), Tag: "vtx"}
		sv.Batch, sv.Seq, sv.Out = s.batch, s.commit, r.out
		r.ready = false
		s.vtxOut.Send(cycle, sv)
		s.commit++
		busy = true
	}

	// Fetch and issue the next vertex (one index per cycle,
	// Table 1).
	s.stepFetch(cycle, &busy)

	// Batch completion: all vertices committed.
	if s.seq == s.batch.State.Count && s.commit == s.batch.State.Count &&
		s.group == nil && !s.batch.StreamerDone {
		s.batch.streamed()
		s.batch = nil
	}
	if busy {
		s.statBusy.Inc()
	} else if s.batch != nil && s.seq >= s.batch.State.Count && s.group == nil && s.fetch.Still() {
		// Every vertex fetched and sent for shading, the next to commit
		// not back yet or Primitive Assembly out of credit: until a group
		// is written to shadeIn or credit folds into vtxOut.
		s.Park()
	}
}

// startBatch begins b with an empty vertex cache. The reorder ring is
// empty already: the last batch committed every seq it issued.
func (s *Streamer) startBatch(b *BatchState) {
	s.batch = b
	s.seq = 0
	s.commit = 0
	s.vcache = s.vcache[:0]
	s.group = nil
	s.fetchSt.active = false
}

// slot returns seq's slot of the reorder ring.
func (s *Streamer) slot(seq int) *robSlot { return &s.rob[seq&(len(s.rob)-1)] }

// setReady copies seq's shaded outputs into the reorder ring.
func (s *Streamer) setReady(seq int, out *[isa.MaxOutputs]vmath.Vec4) {
	r := s.slot(seq)
	r.out, r.ready = *out, true
}

func (s *Streamer) stepFetch(cycle int64, busy *bool) {
	st := s.batch.State
	if s.seq >= st.Count {
		// Flush a trailing partial group.
		s.flushGroup(cycle, true)
		return
	}

	if !s.fetchSt.active {
		idx, stall := s.fetchIndex(cycle, s.seq)
		if stall {
			return
		}
		s.fetchSt.active = true
		s.fetchSt.index = idx
		s.fetchSt.lines = s.attrLines(idx)
		s.fetchSt.looked = false
	}
	*busy = true

	idx := s.fetchSt.index

	// Post-shading vertex cache: only meaningful for indexed draws.
	if st.IndexAddr != 0 {
		if e := s.cached(idx); e != nil {
			s.statVCacheHit.Inc()
			if e.pending {
				// Another copy of this vertex is being shaded; queue
				// this seq on its completion.
				e.waiters = append(e.waiters, s.seq)
			} else {
				s.setReady(s.seq, &e.out)
			}
			s.advance()
			return
		}
	}

	// Attribute fetch: all covering 64-byte lines must be resident.
	allIn := true
	for _, line := range s.fetchSt.lines {
		if s.fetch.Probe(line) {
			continue
		}
		allIn = false
		if !s.fetchSt.looked {
			s.fetch.Lookup(cycle, line)
		}
		s.fetch.RequestFill(cycle, line)
	}
	if !s.fetchSt.looked {
		// Count hits for lines that were resident on first touch.
		for _, line := range s.fetchSt.lines {
			if s.fetch.Probe(line) {
				s.fetch.Lookup(cycle, line)
			}
		}
		s.fetchSt.looked = true
	}
	if !allIn {
		return
	}

	// Build the vertex input and add it to the shading group.
	if s.group == nil {
		s.group = s.pool.groups.Get()
		s.group.DynObject = core.DynObject{ID: s.ids.Next(), Tag: "vtxgroup"}
		s.group.Batch = s.batch
	}
	if s.group.Count == shaderLanes {
		// Group full and not yet sent: wait for shadeOut space.
		s.flushGroup(cycle, false)
		return
	}
	l := s.group.Count
	s.group.Seq[l] = s.seq
	s.group.Index[l] = idx
	for slot := 0; slot < isa.MaxInputs; slot++ {
		s.group.In[l][slot] = FetchAttr(s.gm, st, slot, idx)
	}
	s.group.Count++
	s.statVtx.Inc()
	if st.IndexAddr != 0 {
		s.vcacheInsert(idx)
	}
	s.advance()
	if s.group.Count == shaderLanes {
		s.flushGroup(cycle, false)
	}
}

func (s *Streamer) advance() {
	s.seq++
	s.batch.VtxIssued++
	s.fetchSt.active = false
	if s.seq-s.commit == len(s.rob) {
		s.growRing()
	}
}

// growRing doubles the reorder ring, moving the seqs in flight.
func (s *Streamer) growRing() {
	rob := make([]robSlot, 2*len(s.rob))
	for seq := s.commit; seq < s.seq; seq++ {
		rob[seq&(len(rob)-1)] = *s.slot(seq)
	}
	s.rob = rob
}

// flushGroup sends the group being accumulated when it is full, or
// when force is set, and shadeOut has room. A group is made for the
// vertex that joins it first, so it is never empty.
func (s *Streamer) flushGroup(cycle int64, force bool) {
	if s.group == nil || !force && s.group.Count < shaderLanes || !s.shadeOut.CanSend(cycle, 1) {
		return
	}
	s.shadeOut.Send(cycle, s.group)
	s.group = nil
}

// fetchIndex reads index number seq of the batch; stall=true while
// the index line is being fetched.
func (s *Streamer) fetchIndex(cycle int64, seq int) (idx uint32, stall bool) {
	st := s.batch.State
	if st.IndexAddr == 0 {
		return uint32(st.First + seq), false
	}
	addr := st.IndexAddr + uint32((st.First+seq)*st.IndexSize)
	line := addr &^ 63
	if !s.fetch.Probe(line) {
		s.fetch.Lookup(cycle, line)
		s.fetch.RequestFill(cycle, line)
		return 0, true
	}
	return FetchIndex(s.gm, st, seq), false
}

// attrLines returns the unique 64-byte lines covering the vertex's
// enabled attributes, in order of first use, in the box's scratch: one
// fetch is in flight at a time, and a vertex covers a handful of lines.
func (s *Streamer) attrLines(idx uint32) []uint32 {
	st := s.batch.State
	lines := s.fetchSt.lines[:0]
	for slot := range st.Attribs {
		a := &st.Attribs[slot]
		if !a.Enabled {
			continue
		}
		base := a.Addr + idx*a.Stride
		end := base + uint32(a.Size*4) - 1
		for line := base &^ 63; line <= end&^63; line += 64 {
			if !slices.Contains(lines, line) {
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// cached returns the vertex cache's entry for idx, or nil.
func (s *Streamer) cached(idx uint32) *vcacheEntry {
	for i := range s.vcache {
		if s.vcache[i].index == idx {
			return &s.vcache[i]
		}
	}
	return nil
}

func (s *Streamer) vcacheInsert(idx uint32) {
	s.statVCacheMis.Inc()
	n := len(s.vcache)
	if n == cap(s.vcache) {
		// Evict the oldest non-pending entry; pending entries have
		// waiters that must still be woken by resolveShaded. Its slot,
		// waiters' storage and all, moves to the end for idx.
		i := 0
		for i < n && s.vcache[i].pending {
			i++
		}
		if i == n {
			return // cache full of pending entries: shade uncached
		}
		e := s.vcache[i]
		copy(s.vcache[i:], s.vcache[i+1:])
		s.vcache[n-1] = e
		n--
	}
	s.vcache = s.vcache[:n+1]
	e := &s.vcache[n]
	e.index, e.pending, e.waiters = idx, true, e.waiters[:0]
}

// resolveShaded is called when a vertex group comes back shaded: it
// fills the vertex cache and readies any seqs waiting on the same
// index.
func (s *Streamer) resolveShaded(g *VtxGroup) {
	for l := 0; l < g.Count; l++ {
		if e := s.cached(g.Index[l]); e != nil && e.pending {
			e.out = g.Out[l]
			e.pending = false
			for _, seq := range e.waiters {
				s.setReady(seq, &e.out)
			}
			e.waiters = e.waiters[:0]
		}
	}
}
