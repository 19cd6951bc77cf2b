package mem

import (
	"testing"

	"attila/internal/core"
)

type cacheHarness struct {
	sim   *core.Simulator
	mc    *Controller
	cache *Cache
	gm    *GPUMemory
	cycle int64
}

func newCacheHarness(t testing.TB, cfg CacheConfig, hooks Hooks) *cacheHarness {
	t.Helper()
	sim := core.NewSimulator(0)
	h := &cacheHarness{sim: sim}
	h.gm = NewGPUMemory(1 << 20)
	h.cache = NewCache(sim, cfg, hooks)
	h.mc = NewController(sim, DefaultControllerConfig(), h.gm, []string{cfg.Name})
	if err := sim.Binder.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *cacheHarness) step() {
	h.cache.Clock(h.cycle)
	h.mc.Clock(h.cycle)
	h.cycle++
}

// fetchLine drives the cache until key is resident.
func (h *cacheHarness) fetchLine(t testing.TB, key uint32) {
	t.Helper()
	if !h.cache.RequestFill(h.cycle, key) {
		t.Fatalf("RequestFill(%#x) rejected", key)
	}
	for i := 0; i < 1000; i++ {
		if h.cache.Probe(key) {
			return
		}
		h.step()
	}
	t.Fatalf("line %#x never filled", key)
}

func TestCacheMissThenHit(t *testing.T) {
	h := newCacheHarness(t, DefaultCacheConfig("C"), PassThrough{})
	// Seed memory with a recognizable pattern.
	line := make([]byte, 256)
	for i := range line {
		line[i] = byte(i ^ 0x5A)
	}
	h.gm.WriteBytes(0x1000, line)

	if h.cache.Lookup(h.cycle, 0x1000) {
		t.Fatal("cold cache reported hit")
	}
	h.fetchLine(t, 0x1000)
	if !h.cache.Lookup(h.cycle, 0x1000) {
		t.Fatal("line not hit after fill")
	}
	buf := make([]byte, 16)
	h.cache.Read(0x1000, 32, buf)
	for i := range buf {
		if buf[i] != byte((32+i)^0x5A) {
			t.Fatalf("data at %d: %#x", i, buf[i])
		}
	}
	hits, misses := h.cache.HitMissCounts()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats: %v/%v", hits, misses)
	}
}

func TestCacheWritebackOnEviction(t *testing.T) {
	cfg := CacheConfig{Name: "C", Sets: 1, Assoc: 2, LineBytes: 256, MissQ: 4, PortLimit: 8}
	h := newCacheHarness(t, cfg, PassThrough{})

	h.fetchLine(t, 0x0000)
	h.cache.Write(0x0000, 0, []byte{0xAA, 0xBB})

	// Fill two more lines into the 2-way set: 0x0000 is evicted and
	// must be written back.
	h.fetchLine(t, 0x4000)
	h.fetchLine(t, 0x8000)
	// Drain all memory traffic.
	for i := 0; i < 500 && !h.cache.Quiesce(); i++ {
		h.step()
	}
	if !h.cache.Quiesce() {
		t.Fatal("cache did not quiesce")
	}
	got := make([]byte, 2)
	h.gm.ReadBytes(0, got)
	if got[0] != 0xAA || got[1] != 0xBB {
		t.Fatalf("writeback lost: %#x %#x", got[0], got[1])
	}
	// Refetch: data must round trip.
	h.fetchLine(t, 0x0000)
	buf := make([]byte, 2)
	h.cache.Read(0x0000, 0, buf)
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatalf("refetched data: %v", buf)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cfg := CacheConfig{Name: "C", Sets: 1, Assoc: 2, LineBytes: 256, MissQ: 4, PortLimit: 8}
	h := newCacheHarness(t, cfg, PassThrough{})
	h.fetchLine(t, 0x0000)
	h.fetchLine(t, 0x4000)
	// Touch 0x0000 so 0x4000 is LRU.
	h.cache.Lookup(h.cycle, 0x0000)
	h.fetchLine(t, 0x8000)
	if !h.cache.Probe(0x0000) {
		t.Fatal("recently used line evicted")
	}
	if h.cache.Probe(0x4000) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheMissQueueBound(t *testing.T) {
	cfg := CacheConfig{Name: "C", Sets: 16, Assoc: 4, LineBytes: 256, MissQ: 2, PortLimit: 8}
	h := newCacheHarness(t, cfg, PassThrough{})
	if !h.cache.RequestFill(0, 0x0000) || !h.cache.RequestFill(0, 0x1000) {
		t.Fatal("first two misses rejected")
	}
	if h.cache.RequestFill(0, 0x2000) {
		t.Fatal("third miss accepted beyond MissQ")
	}
	// Duplicate request for a pending line is accepted without a slot.
	if !h.cache.RequestFill(0, 0x0000) {
		t.Fatal("duplicate pending request rejected")
	}
	if h.cache.PendingMisses() != 2 {
		t.Fatalf("pending: %d", h.cache.PendingMisses())
	}
}

// clearHooks simulates a fast-cleared framebuffer: every line is
// synthesized with a clear pattern, no memory traffic.
type clearHooks struct{ fills *int }

func (h clearHooks) FillPlan(key uint32) FillPlan { return FillPlan{Synth: true} }
func (h clearHooks) Synthesize(key uint32, line []byte) {
	*h.fills++
	for i := range line {
		line[i] = 0xC1
	}
}
func (h clearHooks) Decode(key uint32, raw, line []byte)             { copy(line, raw) }
func (h clearHooks) Encode(key uint32, line []byte) (uint32, []byte) { return key, line }

func TestCacheSynthesizedFill(t *testing.T) {
	fills := 0
	h := newCacheHarness(t, DefaultCacheConfig("C"), clearHooks{fills: &fills})
	before := h.sim.Stats.Lookup("MC.readBytes")
	h.fetchLine(t, 0x3000)
	if fills != 1 {
		t.Fatalf("synthesize calls: %d", fills)
	}
	buf := make([]byte, 4)
	h.cache.Read(0x3000, 0, buf)
	if buf[0] != 0xC1 {
		t.Fatalf("synth data: %v", buf)
	}
	if before.Value() != 0 {
		t.Fatal("synthesized fill touched memory")
	}
}

// compressHooks emulate a compressed line: memory holds each byte
// once (128 bytes) and the decoded line duplicates it.
type compressHooks struct{}

func (compressHooks) FillPlan(key uint32) FillPlan {
	return FillPlan{FetchAddr: key, FetchBytes: 128}
}
func (compressHooks) Synthesize(key uint32, line []byte) { panic("no synth") }
func (compressHooks) Decode(key uint32, raw, line []byte) {
	for i, b := range raw {
		line[2*i] = b
		line[2*i+1] = b
	}
}
func (compressHooks) Encode(key uint32, line []byte) (uint32, []byte) {
	raw := make([]byte, len(line)/2)
	for i := range raw {
		raw[i] = line[2*i]
	}
	return key, raw
}

func TestCacheCompressedFill(t *testing.T) {
	h := newCacheHarness(t, DefaultCacheConfig("C"), compressHooks{})
	raw := make([]byte, 128)
	for i := range raw {
		raw[i] = byte(i)
	}
	h.gm.WriteBytes(0x5000, raw)
	h.fetchLine(t, 0x5000)
	buf := make([]byte, 4)
	h.cache.Read(0x5000, 10, buf)
	if buf[0] != 5 || buf[1] != 5 || buf[2] != 6 || buf[3] != 6 {
		t.Fatalf("decoded data: %v", buf)
	}
	// Only 128 bytes fetched.
	if got := h.sim.Stats.Lookup("MC.readBytes").Value(); got != 128 {
		t.Fatalf("fetched bytes: %v", got)
	}
	// Dirty the line and force writeback via FlushDirty.
	h.cache.Write(0x5000, 0, []byte{0x77, 0x77})
	for i := 0; i < 500; i++ {
		if h.cache.FlushDirty(h.cycle) {
			break
		}
		h.step()
	}
	for i := 0; i < 500 && !h.cache.Quiesce(); i++ {
		h.step()
	}
	h.gm.ReadBytes(0x5000, raw[:1])
	if raw[0] != 0x77 {
		t.Fatalf("compressed writeback: %#x", raw[0])
	}
	if got := h.sim.Stats.Lookup("MC.writeBytes").Value(); got != 128 {
		t.Fatalf("written bytes: %v", got)
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	h := newCacheHarness(t, DefaultCacheConfig("C"), PassThrough{})
	h.fetchLine(t, 0x1000)
	h.cache.InvalidateAll()
	if h.cache.Probe(0x1000) {
		t.Fatal("line survived invalidation")
	}
}

func TestCacheHitRate(t *testing.T) {
	h := newCacheHarness(t, DefaultCacheConfig("C"), PassThrough{})
	h.fetchLine(t, 0x1000)
	h.cache.Lookup(h.cycle, 0x1000)
	h.cache.Lookup(h.cycle, 0x1000)
	h.cache.Lookup(h.cycle, 0x2000) // miss
	// 2 hits, 1 fill miss (from fetchLine's Lookup... fetchLine does
	// not call Lookup) + 1 explicit miss.
	if r := h.cache.HitRate(); r != 2.0/3.0 {
		t.Fatalf("hit rate: %v", r)
	}
}
