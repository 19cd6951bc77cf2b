package attila_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"attila/internal/experiments"
	"attila/internal/gpu"
)

// TestGoldenFrames pins the DAC output and cycle count of the
// benchmark's generator scenes at smoke size (64x48; one frame, plus
// two multi-frame rows). The other gates compare the timing simulator
// to the reference renderer — two runs of the same commit, which share
// the shader emulator — so a functional or scheduling drift that both
// sides follow passes them all. The
// one-frame values were computed at commit a9fa157 and must only
// change with a stated reason.
//
// Each row also pins the SHA-256 of the statistics summary and of the
// interval CSV (at a 1000-cycle interval, so a counter credited a few
// cycles late shows): "every statistic stays exact" is what the
// host-speed changes promise, and PRs 12-15 checked it by hand with
// cmp. Computed at commit e0514f4.
func TestGoldenFrames(t *testing.T) {
	for _, c := range []struct {
		name, generator string
		cfg             gpu.Config
		workers, frames int
		cycles          int64
		sha             string
		summarySHA      string
		csvSHA          string
	}{
		{"ut2004-tex", "ut2004", gpu.BaselineUnified(), 0, 1, 95853, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556",
			"8b4fcae16d84cdf9402c83c5f03703cebf3deecd98050f3d2149ef402b923926", "a868a08b1f887d4d61bae9e3f38accfca08e01b62444e194583b5c5b95efd3ce"},
		{"doom3-stencil", "doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 1, 111122, "e867c847765424391d5ce6c0d32dc510072b9735e132485565ba3d6e663cc33a",
			"8aee43101c856d10cdaa36761d671fb7d622590938d57054c364070e70177186", "37099cde543a8df52fb4931cf897023b48439a45d58fd8ff93a68e3dfb0af11e"},
		{"spinner-geom", "spinner", gpu.Embedded(), 0, 1, 9575, "2e69afe4a9b0357ec98c731f12e7ee847c6bc4998419a4a111cc721c04efc247",
			"2c4d07a4a42e99e104d6432eb00e220c782dd7713804c97a8593d027240a229b", "c9abc95eeff44ac6b1d23cd0a1f7f5a25f3418129ae9d33a5f687945a2a550be"},
		// The benchmark's ut2004-par2 still sets the ignored Workers: 2
		// (ROADMAP item 7): its values are ut2004-tex's.
		{"ut2004-par2", "ut2004", gpu.BaselineUnified(), 2, 1, 95853, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556",
			"8b4fcae16d84cdf9402c83c5f03703cebf3deecd98050f3d2149ef402b923926", "a868a08b1f887d4d61bae9e3f38accfca08e01b62444e194583b5c5b95efd3ce"},
		// Not a benchmark scene: the in-order input queue has no other
		// pinned result.
		{"ut2004-inorder", "ut2004", gpu.CaseStudy(2, gpu.ScheduleInOrderQueue), 0, 1, 115386, "5bdb8d73f6606bcc5a215f48989e3b40d2fe6ff8477f1e64192bf7a9d039d556",
			"4f1f8a05a65645c02061c269404aee0039630614fd67f4e7a8e72dbeaa5a952a", "69d35ad921cd49265a670a606e1ce42a41097c234c6d09490a9b1cedfecf16f6"},
		// Multi-frame: every swap flushes the Z and color caches, and the
		// next frame reads back the compressed Z blocks the flush wrote.
		// Computed at 6fbffd4.
		{"spinner-3f", "spinner", gpu.Embedded(), 0, 3, 19760, "004d6e5ba483847a5d7de9e2411e6d53b216ad226860e6865ea297487ccaea11",
			"c9a33239a43d5bd57d42eee33ac9cf295b3a4950d66df8e37fb6a758bb517e61", "df3d18f3bf8e4a73efd755ea358550dd9545c17dae9f03ace83764ceb13b8980"},
		{"doom3-2f", "doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 2, 150045, "091f18c3f34f4f31722dd11168133fb9562d33c8dd959a57fb2cec94c378d20d",
			"72c9b5e5d86ca007c1eba8e0aceeb2a418536ec0f6b511ee2a90d41134d4a4e8", "e4242b0fa2921bf18cd61b53b9dfd86d712d62c7f7bd722d2cc9886627e4035f"},
		// The texture path over several frames (8x aniso), and with one
		// texture unit so the miss-stall path is hot. Computed at ab1d5eb.
		{"ut2004-3f", "ut2004", gpu.BaselineUnified(), 0, 3, 212754, "08a707f130607da4d3e4dae369a0324b2182e0123626cae5b22edeb11c6d9bb3",
			"869afe687c61530f08bae64b1063172ee76b242ff4e43a54b8d74eb45f00938f", "921ff53cc8cb5dcd33e7ce8c5977083dbb29579d46428b03a3b8161f3935b2cd"},
		{"ut2004-1tu", "ut2004", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 2, 210918, "f6375ee6703cb468d0167845f6ccacd0c03fe5415137f91eac28df97c72b225c",
			"19777e84e05c12e73c6885f244426e0be0820928ebada286438023551c04d601", "bb381cbac2084a9cc29eaa79c0d2dbd6ab2d1ce2252255a82ea7beee209852b8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Workers = c.workers
			c.cfg.StatInterval = 1000
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
			var summary, csv bytes.Buffer
			if err := pipe.DumpStats(&summary); err != nil {
				t.Fatal(err)
			}
			if err := pipe.DumpCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(summary.Bytes()); got != c.summarySHA {
				t.Errorf("stats summary sha256 = %s, pinned %s", got, c.summarySHA)
			}
			if got := sha256Hex(csv.Bytes()); got != c.csvSHA {
				t.Errorf("stats CSV sha256 = %s, pinned %s", got, c.csvSHA)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
