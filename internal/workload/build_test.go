package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"attila/internal/emu/texemu"
	"attila/internal/gpu"
	"attila/internal/trace"
)

// streamHash builds a workload against a fresh unified-baseline
// pipeline and returns the SHA-256 of its trace (header, commands and
// end record) as trace.Writer writes it.
func streamHash(name string, p Params) (string, error) {
	pipe, err := gpu.New(gpu.BaselineUnified(), p.Width, p.Height)
	if err != nil {
		return "", err
	}
	cmds, hdr, err := Build(name, pipe, p)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	w, err := trace.NewWriter(h, hdr)
	if err != nil {
		return "", err
	}
	if err := w.WriteCommands(cmds); err != nil {
		return "", err
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// pinnedStreams are the trace hashes of every workload at 128x96x2,
// aniso 8, pinned while the texture kernels still ran a texel at a time
// (per-pixel fbm, At-based halving and tiling, a per-texel luminance
// closure in the DXT encoder). A kernel that moves one texel or one
// compressed bit changes a hash.
var pinnedStreams = map[string]string{
	"doom3/seed1":   "8737dfe870e2d00a23059e268c704a73a3bd0c95ac25ed4ae1df1c6a237e11b5",
	"doom3/seed2":   "e4fa8144f7eb4f29dd8b3630921d9b8588a1e4ff0a5732efb39785ef675c4ad6",
	"doom3/seed7":   "8b495f993aaaa3f487c24fd5ba59f10e8745a46ca3e78f190dca2c3b1c19240b",
	"doom3ds/seed1": "018fe014e785c07b868b9ad28d119cdbb3a87e63d4eef15f564e834aae823adc",
	"doom3ds/seed2": "562c625939656eaf00e0e3839fdc6e20c04881312dc7e847f226b641f7528120",
	"doom3ds/seed7": "9c604b397ce0d95aed095a548883fc1278e43ac2f9e338373a3d46d6e337973f",
	"simple/seed1":  "0b7aaae5d662ccbecba617f4bc0a07bfd08abea02a239e58d9e558f15211492c",
	"simple/seed2":  "0b7aaae5d662ccbecba617f4bc0a07bfd08abea02a239e58d9e558f15211492c",
	"simple/seed7":  "0b7aaae5d662ccbecba617f4bc0a07bfd08abea02a239e58d9e558f15211492c",
	"spinner/seed1": "604677b6185c4dd14fbaff6153acb538e160ff306deab5a3a2cd9afdb9e5814e",
	"spinner/seed2": "604677b6185c4dd14fbaff6153acb538e160ff306deab5a3a2cd9afdb9e5814e",
	"spinner/seed7": "604677b6185c4dd14fbaff6153acb538e160ff306deab5a3a2cd9afdb9e5814e",
	"ut2004/seed1":  "b1ff39fb3c04896906608b97bb91d23451b80ede6f496141cc4d8934122c1700",
	"ut2004/seed2":  "4ab7d2d965f17371705f329b95236a64f041be008ff871b9710a8fbb3d34cf7c",
	"ut2004/seed7":  "4955ae6973edf4f4cd86183412c17962deaf0a347b6d3ca3eee7dfe8d81d7979",
}

// TestBuildStreamsPinned proves the texture kernels exact without
// running the simulator: every workload's command stream, mip chains
// and compressed tiles included, must hash as it always has. It runs
// twice in one process: cold, from an empty texture cache, so every
// texture is synthesised and encoded at its first use, and then warm,
// every texture coming from the cache and none built again.
func TestBuildStreamsPinned(t *testing.T) {
	textures.reset()
	for _, pass := range []string{"cold", "warm"} {
		t.Run(pass, func(t *testing.T) {
			built := textures.kept()
			for _, name := range Names() {
				for _, seed := range []int64{1, 2, 7} {
					key := fmt.Sprintf("%s/seed%d", name, seed)
					p := Params{Width: 128, Height: 96, Frames: 2, Aniso: 8, Seed: seed}
					got, err := streamHash(name, p)
					if err != nil {
						t.Fatal(err)
					}
					if want := pinnedStreams[key]; got != want {
						t.Errorf("%s: stream hash %s, pinned %s", key, got, want)
					}
				}
			}
			if pass == "warm" && textures.kept() != built {
				t.Errorf("warm pass: the cache went from %d to %d textures", built, textures.kept())
			}
		})
	}
}

// BenchmarkBuild times workload.Build at the benchmark's scene sizes:
// the command stream, texture synthesis, mip chains and tile encoding
// included; the machine it builds against is made outside the timer.
// The cold sub-benchmarks empty the texture cache before every op, so
// every texture is synthesised and encoded inside the timer; the warm
// ones fill it once, untimed, and every op takes its textures from it.
// texels/s counts every texel of every mip level the scene uploads.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    Params
	}{
		{"ut2004", Params{Width: 256, Height: 192, Frames: 4, Aniso: 8, Seed: 1}},
		{"doom3", Params{Width: 320, Height: 240, Frames: 3, Aniso: 8, Seed: 1}},
	} {
		for _, mode := range []string{"cold", "warm"} {
			cold := mode == "cold"
			b.Run(bc.name+"/"+mode, func(b *testing.B) {
				build := func() []gpu.Command {
					pipe, err := gpu.New(gpu.BaselineUnified(), bc.p.Width, bc.p.Height)
					if err != nil {
						b.Fatal(err)
					}
					if cold {
						textures.reset()
					}
					b.StartTimer()
					cmds, _, err := Build(bc.name, pipe, bc.p)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					return cmds
				}
				b.StopTimer()
				texels := uploadedTexels(build())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					build()
				}
				b.ReportMetric(float64(texels)*float64(b.N)/b.Elapsed().Seconds(), "texels/s")
			})
		}
	}
}

// uploadedTexels sums the texels of every level and face of every
// texture the stream's draws bind.
func uploadedTexels(cmds []gpu.Command) int {
	seen := map[*texemu.Texture]bool{}
	n := 0
	for _, c := range cmds {
		d, ok := c.(gpu.CmdDraw)
		if !ok {
			continue
		}
		for _, tex := range d.State.Textures {
			if tex == nil || seen[tex] {
				continue
			}
			seen[tex] = true
			for l := 0; l < tex.Levels; l++ {
				w, h, dd := tex.LevelSize(l)
				n += w * h * dd * tex.Faces()
			}
		}
	}
	return n
}
