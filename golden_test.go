package attila_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"attila/internal/experiments"
	"attila/internal/gpu"
)

// TestGoldenFrames pins the DAC output and cycle count of the
// benchmark's generator scenes at smoke size (64x48, one frame). The
// other gates compare the timing simulator to the reference renderer
// or serial to parallel — two runs of the same commit, which share the
// shader emulator — so a functional or scheduling drift that both
// sides follow passes them all. These values were computed at commit
// a9fa157 and must only change with a stated reason.
func TestGoldenFrames(t *testing.T) {
	for _, c := range []struct {
		name, generator string
		cfg             gpu.Config
		workers         int
		cycles          int64
		sha             string
	}{
		{"ut2004-tex", "ut2004", gpu.BaselineUnified(), 0, 95853, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556"},
		{"doom3-stencil", "doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 111122, "e867c847765424391d5ce6c0d32dc510072b9735e132485565ba3d6e663cc33a"},
		{"spinner-geom", "spinner", gpu.Embedded(), 0, 9575, "2e69afe4a9b0357ec98c731f12e7ee847c6bc4998419a4a111cc721c04efc247"},
		{"ut2004-par2", "ut2004", gpu.BaselineUnified(), 2, 95853, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556"},
		// Not a benchmark scene: the in-order input queue has no other
		// pinned result.
		{"ut2004-inorder", "ut2004", gpu.CaseStudy(2, gpu.ScheduleInOrderQueue), 0, 115386, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556"},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Workers = c.workers
			pipe := runWorkloadOnce(t, c.cfg, c.generator, experiments.RunParams{
				Width: 64, Height: 48, Frames: 1, Aniso: 8, Seed: 1, MaxCycles: 500_000_000,
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
