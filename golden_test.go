package attila_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"attila/internal/experiments"
	"attila/internal/gpu"
)

// TestGoldenFrames pins the DAC output and cycle count of the
// benchmark's generator scenes at smoke size (64x48; one frame, plus
// two multi-frame rows). The other gates compare the timing simulator
// to the reference renderer or serial to parallel — two runs of the
// same commit, which share the shader emulator — so a functional or
// scheduling drift that both sides follow passes them all. The
// one-frame values were computed at commit a9fa157 and must only
// change with a stated reason.
func TestGoldenFrames(t *testing.T) {
	for _, c := range []struct {
		name, generator string
		cfg             gpu.Config
		workers, frames int
		cycles          int64
		sha             string
	}{
		{"ut2004-tex", "ut2004", gpu.BaselineUnified(), 0, 1, 95853, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556"},
		{"doom3-stencil", "doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 1, 111122, "e867c847765424391d5ce6c0d32dc510072b9735e132485565ba3d6e663cc33a"},
		{"spinner-geom", "spinner", gpu.Embedded(), 0, 1, 9575, "2e69afe4a9b0357ec98c731f12e7ee847c6bc4998419a4a111cc721c04efc247"},
		{"ut2004-par2", "ut2004", gpu.BaselineUnified(), 2, 1, 95853, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556"},
		// Not a benchmark scene: the in-order input queue has no other
		// pinned result.
		{"ut2004-inorder", "ut2004", gpu.CaseStudy(2, gpu.ScheduleInOrderQueue), 0, 1, 115386, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556"},
		// Multi-frame: every swap flushes the Z and color caches, and the
		// next frame reads back the compressed Z blocks the flush wrote.
		// Computed at 6fbffd4.
		{"spinner-3f", "spinner", gpu.Embedded(), 0, 3, 19760, "004d6e5ba483847a5d7de9e2411e6d53b216ad226860e6865ea297487ccaea11"},
		{"doom3-2f", "doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 2, 150045, "091f18c3f34f4f31722dd11168133fb9562d33c8dd959a57fb2cec94c378d20d"},
		// The texture path over several frames (8x aniso), and with one
		// texture unit so the miss-stall path is hot. Computed at ab1d5eb.
		{"ut2004-3f", "ut2004", gpu.BaselineUnified(), 0, 3, 212754, "08a707f130607da4d3e4dae369a0324b2182e0123626cae5b22edeb11c6d9bb3"},
		{"ut2004-1tu", "ut2004", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 2, 210918, "f6375ee6703cb468d0167845f6ccacd0c03fe5415137f91eac28df97c72b225c"},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Workers = c.workers
			pipe := runWorkloadOnce(t, c.cfg, c.generator, experiments.RunParams{
				Width: 64, Height: 48, Frames: c.frames, Aniso: 8, Seed: 1, MaxCycles: 500_000_000,
			})
			h := sha256.New()
			for _, f := range pipe.Frames() {
				h.Write(f.Pix)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.sha {
				t.Errorf("frame sha256 = %s, pinned %s", got, c.sha)
			}
			if got := pipe.Cycles(); got != c.cycles {
				t.Errorf("cycles = %d, pinned %d", got, c.cycles)
			}
		})
	}
}
