package main

import (
	"strings"

	"attila/internal/core"
	"attila/internal/obsv"
)

// boxClass groups a box into the class its host time is reported
// under. Order matters only for "Shader" vs "Streamer": both are
// matched by full prefix, so neither shadows the other.
func boxClass(box string) string {
	switch {
	case box == core.BarrierBoxName:
		return "barrier"
	case strings.HasPrefix(box, "Shader"):
		return "shader"
	case strings.HasPrefix(box, "TextureUnit"), box == "TexCrossbar":
		return "texunit"
	case strings.HasPrefix(box, "ZStencil"):
		return "zstencil"
	case strings.HasPrefix(box, "ColorWrite"):
		return "colorwrite"
	case box == "MemoryController":
		return "memctrl"
	case box == "Streamer", box == "PrimAssembly", box == "Clipper", box == "TriangleSetup":
		return "geometry"
	case box == "FragmentGenerator", box == "HierarchicalZ", box == "Interpolator", box == "FragmentFIFO":
		return "raster"
	}
	return "other"
}

var boxClasses = []string{"shader", "texunit", "zstencil", "colorwrite", "memctrl", "geometry", "raster", "other", "barrier"}

// sumPrefix adds up stats named <prefix><index>.<suffix> and counts the
// units that have one.
func sumPrefix(stats map[string]float64, prefix, suffix string) (sum float64, units int) {
	for name, v := range stats {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		idx, tail, ok := strings.Cut(rest, ".")
		if !ok || tail != suffix || idx == "" || strings.Trim(idx, "0123456789") != "" {
			continue
		}
		sum += v
		units++
	}
	return sum, units
}

// gpuLayer turns the traced rep — its profiler and the statistics of
// every pipeline it ran — into the gpu.* metrics. hostS is the host
// time the pipelines ran for, summed.
func gpuLayer(m *metricSet, sims []*simRun, prof *obsv.Profiler) {
	share := map[string]float64{}
	for _, row := range prof.Report() {
		share[boxClass(row.Box)] += row.Share
	}
	for _, c := range boxClasses {
		m.set("gpu.share."+c, share[c])
	}

	var cycles, frames, simSeconds, hostS float64
	var instr, texReq, texHit, texMiss, frags, mcBytes float64
	var busyShader, capShader, busyTU, capTU, busyROP, capROP, busyMC float64
	for _, s := range sims {
		c := float64(s.cycles)
		cycles += c
		frames += float64(s.frames)
		simSeconds += c / (float64(s.cfg.ClockMHz) * 1e6)
		hostS += s.wallS
		v, n := sumPrefix(s.stats, "Shader", "instructions")
		instr += v
		v, _ = sumPrefix(s.stats, "Shader", "busyCycles")
		busyShader += v
		capShader += float64(n) * c
		v, _ = sumPrefix(s.stats, "TextureUnit", "requests")
		texReq += v
		v, n = sumPrefix(s.stats, "TextureUnit", "busyCycles")
		busyTU += v
		capTU += float64(n) * c
		v, _ = sumPrefix(s.stats, "TexCache", "hits")
		texHit += v
		v, _ = sumPrefix(s.stats, "TexCache", "misses")
		texMiss += v
		v, n = sumPrefix(s.stats, "ZStencil", "busyCycles")
		busyROP += v
		capROP += float64(n) * c
		v, n = sumPrefix(s.stats, "ColorWrite", "busyCycles")
		busyROP += v
		capROP += float64(n) * c
		frags += s.stats["FGen.fragments"]
		mcBytes += s.stats["MC.readBytes"] + s.stats["MC.writeBytes"]
		busyMC += s.stats["MC.busyCycles"]
	}
	m.set("gpu.sim_cycles", cycles)
	m.set("gpu.sim_fps", frames/simSeconds)
	m.set("gpu.sim_shader_instr", instr)
	m.set("gpu.sim_tex_requests", texReq)
	m.set("gpu.sim_texcache_hit_pct", 100*texHit/(texHit+texMiss)) // 0 when nothing sampled
	m.set("gpu.sim_fragments", frags)
	m.set("gpu.sim_mc_bytes", mcBytes)
	m.set("gpu.sim_util.shader", busyShader/capShader)
	m.set("gpu.sim_util.texunit", busyTU/capTU)
	m.set("gpu.sim_util.rop", busyROP/capROP)
	m.set("gpu.sim_util.mc", busyMC/cycles)
	m.set("gpu.host_ns_per_shader_instr", share["shader"]*hostS*1e9/instr)
	m.set("gpu.host_ns_per_fragment", hostS*1e9/frags)
}
