package workload

import (
	"container/list"
	"sync"

	"attila/internal/emu/texemu"
	"attila/internal/gl"
)

// A scene's textures are data: the same inputs make the same bytes on
// every build. So each process synthesises and encodes a texture once,
// and every later build that asks for the same bytes uploads the same
// *gl.Levels. That is safe because nothing writes a Levels after
// gl.EncodeLevels returns: its levels travel as CmdBufferWrite data,
// which GPU memory copies, the command processor slices into copied
// transactions, and trace encoding and the reference renderer only
// read (DESIGN.md §10 "Built once per process").

// texGen names the generator that synthesises a texture's image.
type texGen uint8

const (
	genGrass texGen = iota
	genRock
	genLightmap
	genFoliage
	genChecker
)

// texKey is every input that decides a texture's bytes: the generator
// and its arguments, the format and whether the chain is mipmapped.
// The noise generators ignore square and the colours, the checker the
// seed.
type texKey struct {
	gen    texGen
	size   int
	seed   int64
	square int
	a, b   texemu.RGBA
	format texemu.Format
	mipmap bool
}

// image synthesises the key's base level.
func (k texKey) image() *gl.Image {
	switch k.gen {
	case genGrass:
		return grassTexture(k.size, k.seed)
	case genRock:
		return rockTexture(k.size, k.seed)
	case genLightmap:
		return lightmapTexture(k.size, k.seed)
	case genFoliage:
		return foliageTexture(k.size, k.seed)
	case genChecker:
		return checkerTexture(k.size, k.square, k.a, k.b)
	}
	panic("workload: unknown texture generator")
}

// texImage uploads the key's texture through the process's cache with
// the given sampler state, params.Mipmap choosing the chain, and
// returns its texture id.
func texImage(ctx *gl.Context, k texKey, params gl.TexParams) uint32 {
	k.mipmap = params.Mipmap
	return ctx.TexImageLevels(textures.get(k), params)
}

// textureBudget bounds the encoded bytes the cache keeps: a few seeds'
// worth of game-sized texture sets (sixteen 1024² DXT1 chains are
// ~11 MiB). Today's scenes keep ~0.2 MiB (ut2004) and ~0.4 MiB (doom3)
// a seed.
const textureBudget = 64 << 20

// textures is the process's cache; every workload texture goes through
// it. It is package state for the reason a sync.Pool is: Build's
// callers have no handle to pass one through, and what it holds is only
// ever what a build would have made anyway.
var textures = newTextureCache(textureBudget)

// textureCache maps a texKey to its encoded chain. Each key is built
// once: an asker that finds the key being built waits for that build.
// Built entries are kept in least-recently-used order and the oldest
// are dropped while the cache holds more than its budget; a dropped key
// is simply built again by the next asker.
type textureCache struct {
	budget int

	mu      sync.Mutex
	entries map[texKey]*texEntry
	lru     list.List // of *texEntry, built ones only, most recent first
	bytes   int       // encoded bytes of the entries in lru
}

type texEntry struct {
	key   texKey
	ready chan struct{} // closed when the build ends
	lv    *gl.Levels    // set before ready closes; nil if the build panicked
	elem  *list.Element // nil while building and once dropped
}

func newTextureCache(budget int) *textureCache {
	return &textureCache{budget: budget, entries: make(map[texKey]*texEntry)}
}

// get returns the key's encoded chain, building it if no one has.
func (c *textureCache) get(k texKey) *gl.Levels {
	for {
		c.mu.Lock()
		e, ok := c.entries[k]
		if !ok {
			e = &texEntry{key: k, ready: make(chan struct{})}
			c.entries[k] = e
			c.mu.Unlock()
			return c.build(e)
		}
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.lv != nil {
			return e.lv
		}
		// The build panicked and its entry is gone: build it here.
	}
}

// build encodes e's texture, then makes it the most recent entry and
// drops the oldest while the cache is over budget (e too, if it alone
// is larger). A panicking build forgets the key, so waiters retry.
func (c *textureCache) build(e *texEntry) *gl.Levels {
	defer func() {
		if e.lv == nil {
			c.mu.Lock()
			c.forget(e)
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	lv := gl.EncodeLevels(e.key.image(), e.key.format, e.key.mipmap)
	c.mu.Lock()
	e.lv = lv
	e.elem = c.lru.PushFront(e)
	c.bytes += lv.Bytes()
	for c.bytes > c.budget {
		c.forget(c.lru.Back().Value.(*texEntry))
	}
	c.mu.Unlock()
	return lv
}

// forget drops e from the cache. Callers hold mu.
func (c *textureCache) forget(e *texEntry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
		c.bytes -= e.lv.Bytes()
	}
}
