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
	fetch *mem.Cache // 64-byte attribute/index fetch buffer

	cmdIn    *Flow // draw commands from CP
	shadeOut *Flow // vertex groups to FragmentFIFO
	shadeIn  *Flow // shaded groups back
	vtxOut   *Flow // ordered vertices to Primitive Assembly

	cmdQ  []*BatchState
	batch *BatchState
	seq   int // next vertex ordinal to fetch

	// Post-shading vertex cache: index -> shaded outputs.
	vcache   map[uint32]*vcacheEntry
	vcacheQ  []uint32         // FIFO replacement order
	pendingV map[uint32][]int // index -> seqs waiting on a shading miss

	// Group being accumulated for shading.
	group *VtxGroup

	// Reorder buffer: seq -> shaded outputs ready to commit.
	ready   map[int]*[isa.MaxOutputs]vmath.Vec4
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

type vcacheEntry struct {
	out     [isa.MaxOutputs]vmath.Vec4
	ready   bool
	pending bool
}

// NewStreamer builds the box; flows are provided by the pipeline
// wiring.
func NewStreamer(sim *core.Simulator, cfg *Config, gm *mem.GPUMemory,
	cmdIn, shadeOut, shadeIn, vtxOut *Flow) *Streamer {
	s := &Streamer{
		cfg: cfg, gm: gm, ids: &sim.IDs,
		cmdIn: cmdIn, shadeOut: shadeOut, shadeIn: shadeIn, vtxOut: vtxOut,
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
		s.cmdQ = append(s.cmdQ, obj.(*BatchState))
	}
	if s.batch == nil && len(s.cmdQ) > 0 {
		s.startBatch(s.cmdQ[0])
		s.cmdQ = s.cmdQ[1:]
		s.cmdIn.Release(1)
	}

	// Collect shaded vertex groups.
	for _, obj := range s.shadeIn.Recv(cycle) {
		g := obj.(*VtxGroup)
		s.shadeIn.Release(1)
		for l := 0; l < g.Count; l++ {
			s.ready[g.Seq[l]] = &g.Out[l]
			g.Batch.ShadedVerts++
		}
		s.resolveShaded(g)
	}

	if s.batch == nil {
		// Until a draw is written to cmdIn (shadeIn is silent between
		// batches) or a reply to the fetch cache's port.
		if len(s.cmdQ) == 0 && s.fetch.Still() {
			s.Park()
		}
		return
	}
	busy := false

	// Commit shaded vertices to Primitive Assembly in order.
	if out, ok := s.ready[s.commit]; ok && s.vtxOut.CanSend(cycle, 1) {
		sv := &ShadedVertex{
			DynObject: core.DynObject{ID: s.ids.Next(), Tag: "vtx"},
			Batch:     s.batch, Seq: s.commit,
		}
		sv.Out = *out
		delete(s.ready, s.commit)
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

func (s *Streamer) startBatch(b *BatchState) {
	s.batch = b
	s.seq = 0
	s.commit = 0
	s.vcache = make(map[uint32]*vcacheEntry)
	s.vcacheQ = nil
	s.pendingV = make(map[uint32][]int)
	s.ready = make(map[int]*[isa.MaxOutputs]vmath.Vec4)
	s.group = nil
	s.fetchSt.active = false
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
		if e, ok := s.vcache[idx]; ok {
			if e.pending {
				// Another copy of this vertex is being shaded; queue
				// this seq on its completion.
				s.pendingV[idx] = append(s.pendingV[idx], s.seq)
				s.statVCacheHit.Inc()
				s.advance()
				return
			}
			if e.ready {
				s.statVCacheHit.Inc()
				s.ready[s.seq] = &e.out
				s.advance()
				return
			}
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
		s.group = &VtxGroup{
			DynObject: core.DynObject{ID: s.ids.Next(), Tag: "vtxgroup"},
			Batch:     s.batch,
		}
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
}

func (s *Streamer) flushGroup(cycle int64, force bool) {
	if s.group == nil || s.group.Count == 0 {
		s.group = nil
		return
	}
	if !force && s.group.Count < shaderLanes {
		return
	}
	if !s.shadeOut.CanSend(cycle, 1) {
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

func (s *Streamer) vcacheInsert(idx uint32) {
	s.statVCacheMis.Inc()
	if len(s.vcacheQ) >= s.cfg.VertexCacheEntries {
		// Evict the oldest non-pending entry; pending entries have
		// waiters that must still be woken by resolveShaded.
		evicted := false
		for i, old := range s.vcacheQ {
			if e := s.vcache[old]; e != nil && !e.pending {
				delete(s.vcache, old)
				s.vcacheQ = append(s.vcacheQ[:i], s.vcacheQ[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // cache full of pending entries: shade uncached
		}
	}
	s.vcache[idx] = &vcacheEntry{pending: true}
	s.vcacheQ = append(s.vcacheQ, idx)
}

// resolveShaded is called (via the FragmentFIFO result routing) when
// a vertex group completes: it fills the vertex cache and wakes any
// seqs waiting on the same index.
func (s *Streamer) resolveShaded(g *VtxGroup) {
	for l := 0; l < g.Count; l++ {
		idx := g.Index[l]
		if e, ok := s.vcache[idx]; ok && e.pending {
			e.out = g.Out[l]
			e.ready = true
			e.pending = false
			for _, seq := range s.pendingV[idx] {
				s.ready[seq] = &e.out
			}
			delete(s.pendingV, idx)
		}
	}
}
