package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"attila/internal/core"
	"attila/internal/emu/rastemu"
	"attila/internal/isa"
	"attila/internal/mem"
	"attila/internal/vmath"
)

// mapStreamer is the Streamer as it was before its vertex cache became
// a fixed array and its reorder buffer a ring: a map from index to a
// heap entry, a FIFO of keys with "oldest non-pending" eviction,
// per-index slices of the seqs waiting on a pending entry, and a
// reorder map of pointers into cache entries and shaded groups, which
// only the garbage collector kept valid. The fetch mechanics
// (fetchIndex, attrLines) are the Streamer's own, on the embedded
// box's fields. TestStreamerMatchesMapModel holds the Streamer to it.
type mapStreamer struct {
	*Streamer
	cmdQ     []*BatchState
	vcache   map[uint32]*mapEntry
	vcacheQ  []uint32         // FIFO replacement order
	pendingV map[uint32][]int // index -> seqs waiting on a shading miss
	ready    map[int]*[isa.MaxOutputs]vmath.Vec4

	// What the draws exercised.
	pendingHits, evictedPastPending, uncached int
}

type mapEntry struct {
	out     [isa.MaxOutputs]vmath.Vec4
	ready   bool
	pending bool
}

func newMapStreamer(sim *core.Simulator, cfg *Config, gm *mem.GPUMemory, cmdIn, shadeOut, shadeIn, vtxOut *Flow) *mapStreamer {
	s := &mapStreamer{Streamer: &Streamer{
		cfg: cfg, gm: gm, ids: &sim.IDs,
		cmdIn: cmdIn, shadeOut: shadeOut, shadeIn: shadeIn, vtxOut: vtxOut,
	}}
	s.Init("Streamer")
	s.fetch = mem.NewCache(sim, mem.CacheConfig{
		Name: "Streamer", Sets: cfg.VertexFetchLines / 2, Assoc: 2,
		LineBytes: 64, MissQ: 8, PortLimit: 8,
	}, mem.PassThrough{})
	sim.Stats.ShadowProgress(&s.statVtx, "Streamer.vertices")
	sim.Stats.ShadowProgress(&s.statVCacheHit, "Streamer.vcacheHits")
	sim.Stats.ShadowProgress(&s.statVCacheMis, "Streamer.vcacheMisses")
	sim.Stats.ShadowCounter(&s.statBusy, "Streamer.busyCycles")
	sim.Register(s)
	return s
}

func (s *mapStreamer) Clock(cycle int64) {
	s.fetch.Clock(cycle)
	for _, obj := range s.cmdIn.Recv(cycle) {
		s.cmdQ = append(s.cmdQ, obj.(*BatchState))
	}
	if s.batch == nil && len(s.cmdQ) > 0 {
		s.startBatch(s.cmdQ[0])
		s.cmdQ = s.cmdQ[1:]
		s.cmdIn.Release(1)
	}
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
		if len(s.cmdQ) == 0 && s.fetch.Still() {
			s.Park()
		}
		return
	}
	busy := false
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
	s.stepFetch(cycle, &busy)
	if s.seq == s.batch.State.Count && s.commit == s.batch.State.Count &&
		s.group == nil && !s.batch.StreamerDone {
		s.batch.streamed()
		s.batch = nil
	}
	if busy {
		s.statBusy.Inc()
	} else if s.batch != nil && s.seq >= s.batch.State.Count && s.group == nil && s.fetch.Still() {
		s.Park()
	}
}

func (s *mapStreamer) startBatch(b *BatchState) {
	s.batch = b
	s.seq = 0
	s.commit = 0
	s.vcache = make(map[uint32]*mapEntry)
	s.vcacheQ = nil
	s.pendingV = make(map[uint32][]int)
	s.ready = make(map[int]*[isa.MaxOutputs]vmath.Vec4)
	s.group = nil
	s.fetchSt.active = false
}

func (s *mapStreamer) stepFetch(cycle int64, busy *bool) {
	st := s.batch.State
	if s.seq >= st.Count {
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
	if st.IndexAddr != 0 {
		if e, ok := s.vcache[idx]; ok {
			if e.pending {
				s.pendingV[idx] = append(s.pendingV[idx], s.seq)
				s.statVCacheHit.Inc()
				s.pendingHits++
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
	if s.group == nil {
		s.group = &VtxGroup{
			DynObject: core.DynObject{ID: s.ids.Next(), Tag: "vtxgroup"},
			Batch:     s.batch,
		}
	}
	if s.group.Count == shaderLanes {
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

func (s *mapStreamer) advance() {
	s.seq++
	s.batch.VtxIssued++
	s.fetchSt.active = false
}

func (s *mapStreamer) flushGroup(cycle int64, force bool) {
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

func (s *mapStreamer) vcacheInsert(idx uint32) {
	s.statVCacheMis.Inc()
	if len(s.vcacheQ) >= s.cfg.VertexCacheEntries {
		evicted := false
		for i, old := range s.vcacheQ {
			if e := s.vcache[old]; e != nil && !e.pending {
				delete(s.vcache, old)
				s.vcacheQ = append(s.vcacheQ[:i], s.vcacheQ[i+1:]...)
				evicted = true
				if i > 0 {
					s.evictedPastPending++
				}
				break
			}
		}
		if !evicted {
			if len(s.vcacheQ) > 0 {
				s.uncached++
			}
			return
		}
	}
	s.vcache[idx] = &mapEntry{pending: true}
	s.vcacheQ = append(s.vcacheQ, idx)
}

func (s *mapStreamer) resolveShaded(g *VtxGroup) {
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

// funcBox is a toy box clocked through a function.
type funcBox struct {
	core.BoxBase
	clock func(cycle int64)
}

func (b *funcBox) Clock(cycle int64) { b.clock(cycle) }

func addFuncBox(sim *core.Simulator, name string, clock func(int64)) {
	b := &funcBox{clock: clock}
	b.Init(name)
	sim.Register(b)
}

// geomVertices is how many vertices the rig's vertex buffer holds;
// geomVBuf is where it starts: slot 0 is a clip-space position, slot
// 3 a two-component attribute, interleaved 32 bytes apart.
const (
	geomVertices = 48
	geomVBuf     = 0x1000
	geomIBufs    = 0x4000
)

// writeGeomVertices fills the rig's vertex buffer with positions inside
// the frustum that differ per vertex.
func writeGeomVertices(gm *mem.GPUMemory) {
	buf := make([]byte, 32*geomVertices)
	for v := 0; v < geomVertices; v++ {
		a := 2 * math.Pi * float64(v) / geomVertices
		fs := []float32{float32(0.8 * math.Cos(a)), float32(0.8 * math.Sin(a)), float32(v) / geomVertices, 1, float32(v), -float32(v)}
		for i, f := range fs {
			binary.LittleEndian.PutUint32(buf[32*v+4*i:], math.Float32bits(f))
		}
	}
	gm.WriteBytes(geomVBuf, buf)
}

// geomState is a triangle list of count vertices over the rig's vertex
// buffer, through the index buffer at ibuf (0: sequential).
func geomState(ibuf uint32, indexSize, first, count int) *DrawState {
	st := &DrawState{
		Primitive: Triangles, IndexAddr: ibuf, IndexSize: indexSize, First: first, Count: count,
		Viewport: rastemu.Viewport{W: 64, H: 64, Far: 1},
	}
	st.Attribs[0] = AttribBinding{Enabled: true, Addr: geomVBuf, Stride: 32, Size: 4}
	st.Attribs[3] = AttribBinding{Enabled: true, Addr: geomVBuf + 16, Stride: 32, Size: 2}
	return st
}

// randomDraws writes index buffers into gm and returns draws over
// them: indexed ones with repeats, 2- and 4-byte indices, a random
// first index, and the odd sequential draw.
func randomDraws(rng *rand.Rand, gm *mem.GPUMemory) []*BatchState {
	var draws []*BatchState
	ibuf := uint32(geomIBufs)
	for d := 1 + rng.Intn(5); d > 0; d-- {
		if rng.Intn(6) == 0 {
			n := 1 + rng.Intn(geomVertices)
			draws = append(draws, &BatchState{State: geomState(0, 0, rng.Intn(geomVertices-n+1), n)})
			continue
		}
		count := 1 + rng.Intn(160)
		size := 2 + 2*rng.Intn(2)
		first := rng.Intn(4)
		spread := 2 + rng.Intn(geomVertices-2) // few distinct indices: many repeats
		buf := make([]byte, size*(first+count))
		for i := 0; i < first+count; i++ {
			idx := uint32(rng.Intn(spread))
			if size == 2 {
				binary.LittleEndian.PutUint16(buf[2*i:], uint16(idx))
			} else {
				binary.LittleEndian.PutUint32(buf[4*i:], idx)
			}
		}
		gm.WriteBytes(ibuf, buf)
		draws = append(draws, &BatchState{State: geomState(ibuf, size, first, count)})
		ibuf += uint32(len(buf)+63) &^ 63
	}
	return draws
}

// shade is the rig's vertex program: every output a function of the
// vertex's two attributes and the output's number.
func shade(g *VtxGroup) {
	for l := 0; l < g.Count; l++ {
		for k := range g.Out[l] {
			g.Out[l][k] = vmath.Vec4{g.In[l][0][0], g.In[l][0][1], g.In[l][3][0] + float32(k), g.In[l][0][3]}
		}
		g.Out[l][isa.AttrPos] = g.In[l][0]
	}
}

// geomRig is the geometry front end between toy boxes: a command
// processor sending the draws, a shader returning each vertex group
// after a seeded random hold (so out of order), and, after the boxes
// under test, a consumer taking what they send with seeded random
// stalls. Each toy logs what it receives, with the cycle.
type geomRig struct {
	sim     *core.Simulator
	gm      *mem.GPUMemory
	pool    *pipePool
	cfg     Config
	logging bool
	log     []string

	cmdIn, shadeOut, shadeIn, vtxOut *Flow
	draws                            []*BatchState
	sunk                             int // objects the last toy took
}

// newGeomRig builds the rig's memory, flows and toy front: draws go
// out of cmdIn, groups come back on shadeIn after holding up to
// maxHold cycles.
func newGeomRig(seed int64, cfg Config, maxHold int, draws func(*mem.GPUMemory) []*BatchState) *geomRig {
	r := &geomRig{sim: core.NewSimulator(0), gm: mem.NewGPUMemory(1 << 20), pool: &pipePool{}, cfg: cfg}
	writeGeomVertices(r.gm)
	r.draws = draws(r.gm)
	sim := r.sim
	r.cmdIn = pFlow(sim, "CommandProcessor", "Streamer", "CP.Draw", 1, 1, 0, 2)
	r.shadeOut = pFlow(sim, "Streamer", "Shader", "Streamer.ShadeIn", 1, 1, 0, 16)
	r.shadeIn = pFlow(sim, "Shader", "Streamer", "FFIFO.VtxShaded", 1, 1, 0, 16)
	r.vtxOut = pFlow(sim, "Streamer", "PrimAssembly", "Streamer.VtxOut", 1, 1, 0, r.cfg.PAQueue)

	next := 0
	addFuncBox(sim, "CommandProcessor", func(cycle int64) {
		if next < len(r.draws) && r.cmdIn.CanSend(cycle, 1) {
			r.cmdIn.Send(cycle, r.draws[next])
			next++
		}
	})
	rng := rand.New(rand.NewSource(seed))
	type held struct {
		g   *VtxGroup
		due int64
	}
	var inFlight []held
	addFuncBox(sim, "Shader", func(cycle int64) {
		for _, obj := range r.shadeOut.Recv(cycle) {
			g := obj.(*VtxGroup)
			if r.logging {
				r.log = append(r.log, fmt.Sprintf("%d group %d %v %v", cycle, g.ID, g.Seq[:g.Count], g.Index[:g.Count]))
			}
			inFlight = append(inFlight, held{g, cycle + 1 + int64(rng.Intn(maxHold))})
		}
		for i := 0; i < len(inFlight); i++ {
			if h := inFlight[i]; h.due <= cycle && r.shadeIn.CanSend(cycle, 1) {
				shade(h.g)
				r.shadeIn.Send(cycle, h.g)
				r.shadeOut.Release(1)
				inFlight = slices.Delete(inFlight, i, i+1)
				break
			}
		}
	})
	return r
}

// sink adds the toy at the rig's end, reading what leaves through in
// as the box named consumer, and taking each item with probability
// 1/stall per cycle.
func (r *geomRig) sink(seed int64, consumer string, in *Flow, stall int, take func(cycle int64, obj core.Dynamic)) {
	rng := rand.New(rand.NewSource(seed))
	var queue core.FIFO[core.Dynamic]
	addFuncBox(r.sim, consumer, func(cycle int64) {
		for _, obj := range in.Recv(cycle) {
			queue.Push(obj)
		}
		if queue.Len() > 0 && rng.Intn(stall) == 0 {
			take(cycle, queue.Pop())
			in.Release(1)
			r.sunk++
		}
	})
}

// streamerRun runs random draws through the Streamer or its model. It
// returns the rig, the committed outputs in commit order, the box and
// the model (nil for the Streamer).
func streamerRun(t *testing.T, seed int64, model bool) (r *geomRig, outs [][isa.MaxOutputs]vmath.Vec4, s *Streamer, m *mapStreamer) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Baseline()
	cfg.VertexCacheEntries = []int{0, 1, 2, 4, 16}[rng.Intn(5)]
	cfg.PAQueue = 1 + rng.Intn(8)
	maxHold := []int{1, 20, 300}[rng.Intn(3)]
	stall := 1 + rng.Intn(4)
	r = newGeomRig(seed, cfg, maxHold, func(gm *mem.GPUMemory) []*BatchState { return randomDraws(rng, gm) })
	r.logging = true
	if model {
		m = newMapStreamer(r.sim, &r.cfg, r.gm, r.cmdIn, r.shadeOut, r.shadeIn, r.vtxOut)
		s = m.Streamer
	} else {
		s = NewStreamer(r.sim, &r.cfg, r.pool, r.gm, r.cmdIn, r.shadeOut, r.shadeIn, r.vtxOut)
	}
	r.sink(seed+1, "PrimAssembly", r.vtxOut, stall, func(cycle int64, obj core.Dynamic) {
		sv := obj.(*ShadedVertex)
		r.log = append(r.log, fmt.Sprintf("%d vertex %d seq %d %v", cycle, sv.ID, sv.Seq, sv.Out))
		outs = append(outs, sv.Out)
		if !model {
			r.pool.vertices.Put(sv)
		}
	})
	mem.NewController(r.sim, cfg.Memory, r.gm, []string{"Streamer"})
	total := 0
	for _, b := range r.draws {
		total += b.State.Count
	}
	r.sim.SetDone(func() bool { return r.sunk == total })
	r.sim.SetWatchdog(100_000)
	if err := r.sim.Run(10_000_000); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return r, outs, s, m
}

// counts is what the Streamer counted: vertex cache hits and misses,
// and vertices shaded.
func (s *Streamer) counts() [3]float64 {
	return [3]float64{s.statVCacheHit.Value(), s.statVCacheMis.Value(), s.statVtx.Value()}
}

// The Streamer against the map-based model it replaced, over random
// indexed draws with repeats, vertex caches of 0 to 16 entries and
// shading held from one to hundreds of cycles, returned out of order:
// the same groups sent on the same cycles, the same outputs committed
// per seq on the same cycles, the same cache hits and misses. The
// draws must cover hits on pending entries, evictions past pending
// entries, misses shaded uncached because every entry is pending, and
// a reorder ring that has to grow. Every output is also the program's
// output for the seq's index, and every group and vertex came back to
// the pool.
func TestStreamerMatchesMapModel(t *testing.T) {
	var pendingHits, evictedPastPending, uncached, grown int
	for seed := int64(1); seed <= 60; seed++ {
		got, outs, s, _ := streamerRun(t, seed, false)
		want, _, _, m := streamerRun(t, seed, true)
		if len(s.rob) > 16 {
			grown++
		}
		pendingHits += m.pendingHits
		evictedPastPending += m.evictedPastPending
		uncached += m.uncached
		for j := range min(len(got.log), len(want.log)) {
			if got.log[j] != want.log[j] {
				t.Fatalf("seed %d: event %d is\n%s\nwant\n%s", seed, j, got.log[j], want.log[j])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d events, want %d", seed, len(got.log), len(want.log))
		}
		if s.counts() != m.counts() {
			t.Fatalf("seed %d: %v hits, misses and vertices, the model %v", seed, s.counts(), m.counts())
		}
		i := 0
		for _, b := range got.draws {
			for seq := 0; seq < b.State.Count; seq, i = seq+1, i+1 {
				g := &VtxGroup{Count: 1}
				idx := FetchIndex(got.gm, b.State, seq)
				for slot := range g.In[0] {
					g.In[0][slot] = FetchAttr(got.gm, b.State, slot, idx)
				}
				shade(g)
				if outs[i] != g.Out[0] {
					t.Fatalf("seed %d: seq %d of a draw committed %v, want %v", seed, seq, outs[i], g.Out[0])
				}
			}
		}
		for _, k := range []PoolKind{poolKind("groups", &got.pool.groups), poolKind("vertices", &got.pool.vertices)} {
			if k.Idle != k.Made {
				t.Fatalf("seed %d: %d of %d %s back", seed, k.Idle, k.Made, k.Name)
			}
		}
	}
	t.Logf("pending hits %d, evictions past a pending entry %d, shaded uncached %d, runs that grew the ring %d",
		pendingHits, evictedPastPending, uncached, grown)
	if pendingHits == 0 || evictedPastPending == 0 || uncached == 0 || grown == 0 {
		t.Errorf("the draws missed a case: pending hits %d, evictions past a pending entry %d, shaded uncached %d, runs that grew the ring %d",
			pendingHits, evictedPastPending, uncached, grown)
	}
}

// A warmed batch through the Streamer, Primitive Assembly, the Clipper
// and Setup allocates nothing: its vertex groups, shaded vertices,
// triangles and set-up triangles come from the pool, and the reorder
// ring, the vertex cache and the assembly window are reused storage.
// Warming takes a few batches: signal rings and the toys' queues reach
// their high-water marks a slot at a time.
func TestGeometryBatchAllocatesNothing(t *testing.T) {
	const count, warm, runs = 3 * 40, 20, 9
	batches := make([]*BatchState, warm+runs+1) // AllocsPerRun runs once more
	r := newGeomRig(1, Baseline(), 20, func(gm *mem.GPUMemory) []*BatchState {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 2*count)
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint16(buf[2*i:], uint16(rng.Intn(geomVertices)))
		}
		gm.WriteBytes(geomIBufs, buf)
		for i := range batches {
			batches[i] = &BatchState{State: geomState(geomIBufs, 2, 0, count)}
		}
		return batches[:0]
	})
	sim, cfg := r.sim, &r.cfg
	paOut := pFlow(sim, "PrimAssembly", "Clipper", "PA.TriOut", 1, 1, 0, cfg.ClipQueue)
	clipOut := pFlow(sim, "Clipper", "TriangleSetup", "Clipper.TriOut", 1, cfg.ClipLatency, 0, cfg.SetupQueue)
	setupOut := pFlow(sim, "TriangleSetup", "FragmentGenerator", "Setup.TriOut", 1, cfg.SetupLatency, 0, cfg.FGenQueue)
	NewStreamer(sim, cfg, r.pool, r.gm, r.cmdIn, r.shadeOut, r.shadeIn, r.vtxOut)
	NewPrimAssembly(sim, r.pool, r.vtxOut, paOut)
	NewClipper(sim, r.pool, paOut, clipOut)
	NewSetup(sim, r.pool, clipOut, setupOut)
	r.sink(2, "FragmentGenerator", setupOut, 2, func(_ int64, obj core.Dynamic) {
		tri := obj.(*SetupTri)
		tri.Batch.retireTris(1)
		r.pool.releaseTri(tri)
	})
	mem.NewController(sim, cfg.Memory, r.gm, []string{"Streamer"})

	boxes := sim.Boxes()
	var cycle int64
	runBatch := func() {
		b := batches[len(r.draws)]
		r.draws = batches[:len(r.draws)+1]
		for !b.Done() {
			for _, box := range boxes {
				box.Clock(cycle)
			}
			sim.EndCycle(cycle)
			cycle++
		}
	}
	for range warm {
		runBatch()
	}
	if allocs := testing.AllocsPerRun(runs, runBatch); allocs != 0 {
		t.Errorf("a warmed batch of %d vertices made %.0f allocations, want none", count, allocs)
	}
	if r.sunk == 0 {
		t.Fatal("no triangle reached the end")
	}
	for _, k := range []PoolKind{poolKind("groups", &r.pool.groups), poolKind("vertices", &r.pool.vertices),
		poolKind("tris", &r.pool.tris), poolKind("setups", &r.pool.setups)} {
		if k.Idle != k.Made {
			t.Errorf("%d of %d %s back", k.Idle, k.Made, k.Name)
		}
	}
}

// shadeTracer checks, as the signal trace is drained, that every
// vertex group coming back shaded is one that went out to be shaded.
type shadeTracer struct {
	sent          map[core.DynObject]bool
	back, strange int
}

func (tr *shadeTracer) Trace(_ int64, signal string, obj *core.DynObject) {
	switch signal {
	case "Streamer.ShadeIn":
		tr.sent[*obj] = true
	case "FFIFO.VtxShaded":
		tr.back++
		if !tr.sent[*obj] {
			tr.strange++
		}
	}
}

// A vertex group goes back to the pool only after the cycle's signal
// trace has read it. Released as it arrives, it would be taken again
// for the next group in the same Clock, and the trace, drained at the
// end of the cycle, would show the new group's ID coming back shaded.
func TestTracedVertexGroupsKeepTheirIDs(t *testing.T) {
	cfg := BaselineUnified()
	cfg.StatInterval = 0
	p, err := New(cfg, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	// An indexed draw: vertex cache hits let the Streamer start new
	// groups while earlier ones come back.
	const n, distinct = 3 * 200, 40
	st, vbuf := testState(t, p, distinct)
	ibuf, err := p.Alloc(2*n, 64)
	if err != nil {
		t.Fatal(err)
	}
	st.Count, st.IndexAddr, st.IndexSize = n, ibuf, 2
	rng := rand.New(rand.NewSource(1))
	vs := make([][]float32, distinct)
	for i := range vs {
		vs[i] = vtx(2*rng.Float32()-1, 2*rng.Float32()-1, rng.Float32(), vmath.Vec4{1, 1, 1, 1})
	}
	indices := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(indices[2*i:], uint16(rng.Intn(distinct)))
	}
	tr := &shadeTracer{sent: map[core.DynObject]bool{}}
	p.TraceSignals(tr)
	if err := p.Run([]Command{
		CmdBufferWrite{Addr: vbuf, Data: buildVerts(vs...)},
		CmdBufferWrite{Addr: ibuf, Data: indices},
		CmdDraw{State: st},
		CmdSwap{},
	}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d groups came back shaded", tr.back)
	if tr.back == 0 || tr.strange != 0 {
		t.Errorf("%d groups came back shaded, %d of them never sent", tr.back, tr.strange)
	}
}
