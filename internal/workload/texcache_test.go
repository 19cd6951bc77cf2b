package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"attila/internal/emu/texemu"
	"attila/internal/gl"
	"attila/internal/gpu"
	"attila/internal/refrender"
	"attila/internal/vmath"
)

// reset empties the cache, so that the next build of every texture is
// cold. A build in flight still finishes into it.
func (c *textureCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[texKey]*texEntry)
	c.lru.Init()
	c.bytes = 0
}

// kept returns the number of textures built and kept.
func (c *textureCache) kept() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// levelsHashes returns the SHA-256 of every kept texture's levels.
func (c *textureCache) levelsHashes() map[texKey][32]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[texKey][32]byte, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*texEntry)
		h := sha256.New()
		for _, d := range e.lv.Data {
			h.Write(d)
		}
		var sum [32]byte
		h.Sum(sum[:0])
		out[e.key] = sum
	}
	return out
}

// checkAccounting fails unless the cache's byte count is its kept
// entries' and within its budget, and its map and list agree.
func (c *textureCache) checkAccounting(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*texEntry)
		if c.entries[e.key] != e {
			t.Fatalf("kept entry %+v is not the map's", e.key)
		}
		n += e.lv.Bytes()
	}
	if n != c.bytes || c.bytes > c.budget || len(c.entries) != c.lru.Len() {
		t.Fatalf("cache holds %d bytes, counts %d, budget %d; %d keys, %d kept",
			n, c.bytes, c.budget, len(c.entries), c.lru.Len())
	}
}

// Four builders start together on the same scenes, from an empty
// cache: each key is built by one of them while the others wait for
// it, and every stream must hash as pinned.
func TestTextureCacheConcurrentBuilds(t *testing.T) {
	textures.reset()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, name := range []string{"ut2004", "doom3"} {
				for _, seed := range []int64{1, 2} {
					key := fmt.Sprintf("%s/seed%d", name, seed)
					got, err := streamHash(name, Params{Width: 128, Height: 96, Frames: 2, Aniso: 8, Seed: seed})
					if err != nil {
						t.Error(err)
					} else if want := pinnedStreams[key]; got != want {
						t.Errorf("worker %d, %s: stream hash %s, pinned %s", w, key, got, want)
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	textures.checkAccounting(t)
	// ut2004's four textures per seed, doom3's rock per seed and its
	// checker once.
	if n := textures.kept(); n != 2*4+2+1 {
		t.Errorf("cache keeps %d textures, want 11", n)
	}
}

// Nothing a run does writes the shared levels: every kept texture
// hashes the same before and after a ut2004 run on the timing
// simulator, its reference rendering, and a render-to-texture run whose
// target starts from a cached texture.
func TestTextureCacheLevelsUnwritten(t *testing.T) {
	textures.reset()
	p := Params{Width: 64, Height: 48, Frames: 1, Aniso: 8, Seed: 1}
	cfg := gpu.BaselineUnified()
	cfg.StatInterval = 0
	pipe, err := gpu.New(cfg, p.Width, p.Height)
	if err != nil {
		t.Fatal(err)
	}
	cmds, _, err := Build("ut2004", pipe, p)
	if err != nil {
		t.Fatal(err)
	}
	rttPipe, rttCmds := renderToCachedTexture(t, cfg)
	before := textures.levelsHashes()

	if err := pipe.Run(cmds, 100_000_000); err != nil {
		t.Fatal(err)
	}
	ref := refrender.New(cfg.GPUMemBytes, p.Width, p.Height)
	if err := ref.Execute(cmds); err != nil {
		t.Fatal(err)
	}
	if err := rttPipe.Run(rttCmds, 100_000_000); err != nil {
		t.Fatal(err)
	}
	rttRef := refrender.New(cfg.GPUMemBytes, rttPipe.Width(), rttPipe.Height())
	if err := rttRef.Execute(rttCmds); err != nil {
		t.Fatal(err)
	}
	sim, rf := rttPipe.Frames(), rttRef.Frames()
	if len(sim) != 1 || len(rf) != 1 {
		t.Fatalf("render to texture: frames sim %d ref %d", len(sim), len(rf))
	}
	if diff, _ := gpu.DiffFrames(sim[0], rf[0]); diff != 0 {
		t.Fatalf("render to texture: %d pixels differ", diff)
	}

	after := textures.levelsHashes()
	if len(after) != len(before) {
		t.Errorf("the cache went from %d to %d textures", len(before), len(after))
	}
	for k, h := range before {
		if after[k] != h {
			t.Errorf("texture %+v changed", k)
		}
	}
}

// renderToCachedTexture builds a scene that renders to spinner's
// cached checker as a texture (a clear and a triangle), then samples it
// on screen, and returns the pipeline to run it on.
func renderToCachedTexture(t *testing.T, cfg gpu.Config) (*gpu.Pipeline, []gpu.Command) {
	const w, h = 32, 32
	pipe, err := gpu.New(cfg, w, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := gl.NewContext(pipe, w, h)
	params := gl.DefaultTexParams()
	params.MinFilter, params.MagFilter, params.MaxAniso = texemu.FilterNearest, texemu.FilterNearest, 1
	target := texImage(ctx, texKey{gen: genChecker, size: 32, square: 4,
		a: texemu.RGBA{220, 220, 220, 255}, b: texemu.RGBA{60, 60, 120, 255},
		format: texemu.FmtRGBA8}, params)

	var tri, quad Mesh
	white := vmath.Vec4{1, 1, 1, 1}
	tri.Add(Vertex{Pos: [3]float32{-0.8, -0.8, 0}, Color: vmath.Vec4{1, 0, 0, 1}})
	tri.Add(Vertex{Pos: [3]float32{0.8, -0.8, 0}, Color: vmath.Vec4{1, 0, 0, 1}})
	tri.Add(Vertex{Pos: [3]float32{0, 0.8, 0}, Color: vmath.Vec4{1, 0, 0, 1}})
	tri.Tri(0, 1, 2)
	quad.Quad(
		quad.Add(Vertex{Pos: [3]float32{-1, -1, 0}, Color: white, UV0: [2]float32{0, 0}}),
		quad.Add(Vertex{Pos: [3]float32{1, -1, 0}, Color: white, UV0: [2]float32{1, 0}}),
		quad.Add(Vertex{Pos: [3]float32{1, 1, 0}, Color: white, UV0: [2]float32{1, 1}}),
		quad.Add(Vertex{Pos: [3]float32{-1, 1, 0}, Color: white, UV0: [2]float32{0, 1}}))
	triBuf, quadBuf := tri.Upload(ctx), quad.Upload(ctx)

	ctx.RenderToTexture(target)
	ctx.ClearColor(0, 0.25, 0, 1)
	ctx.Clear(gl.ColorBufferBit)
	triBuf.Draw(ctx)
	ctx.RenderToScreen()
	ctx.Clear(gl.ColorBufferBit)
	ctx.Enable(gl.CapTexture0)
	ctx.BindTexture(0, target)
	quadBuf.Draw(ctx)
	ctx.SwapBuffers()
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
	return pipe, ctx.Commands()
}

// A cache built past its budget keeps under it, dropping the least
// recently used texture first; a dropped texture is built again, byte
// for byte, and one larger than the whole budget is not kept.
func TestTextureCacheBudget(t *testing.T) {
	key := func(seed int64) texKey {
		return texKey{gen: genGrass, size: 64, seed: seed, format: texemu.FmtDXT1, mipmap: true}
	}
	one := gl.EncodeLevels(key(0).image(), texemu.FmtDXT1, true).Bytes()
	c := newTextureCache(3 * one)

	first := c.get(key(1))
	c.get(key(2))
	c.get(key(3))
	c.checkAccounting(t)
	c.get(key(1)) // now the most recent: key 2 is the oldest
	c.get(key(4))
	c.checkAccounting(t)
	if _, kept := c.entries[key(2)]; kept {
		t.Error("the least recently used texture was kept")
	}
	if _, kept := c.entries[key(1)]; !kept {
		t.Error("a recently used texture was dropped")
	}
	for seed := int64(5); seed <= 12; seed++ {
		c.get(key(seed))
		c.checkAccounting(t)
	}
	if _, kept := c.entries[key(1)]; kept {
		t.Fatal("texture 1 survived eight newer ones in a budget of three")
	}
	again := c.get(key(1))
	if again == first {
		t.Fatal("a dropped texture came back without a rebuild")
	}
	if len(again.Data) != len(first.Data) {
		t.Fatalf("rebuilt %d levels, first built %d", len(again.Data), len(first.Data))
	}
	for l := range first.Data {
		if !bytes.Equal(again.Data[l], first.Data[l]) {
			t.Fatalf("level %d rebuilt differently", l)
		}
	}

	big := texKey{gen: genGrass, size: 256, seed: 1, format: texemu.FmtDXT1, mipmap: true}
	if lv := c.get(big); lv.Bytes() <= c.budget {
		t.Fatalf("%d bytes fit the %d-byte budget", lv.Bytes(), c.budget)
	}
	c.checkAccounting(t)
	if _, kept := c.entries[big]; kept {
		t.Error("a texture larger than the budget was kept")
	}
}

// A build that panics forgets its key: the panic reaches the asker, and
// the next asker builds the key again instead of waiting forever.
func TestTextureCachePanickingBuildIsForgotten(t *testing.T) {
	c := newTextureCache(textureBudget)
	bad := texKey{gen: genChecker, size: 8, square: 0, format: texemu.FmtRGBA8} // divides by zero
	for try := 0; try < 2; try++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a checker with zero-sized squares built")
				}
			}()
			c.get(bad)
		}()
		if len(c.entries) != 0 || c.lru.Len() != 0 || c.bytes != 0 {
			t.Fatalf("try %d: a failed build left %d keys, %d kept, %d bytes", try, len(c.entries), c.lru.Len(), c.bytes)
		}
	}
}
