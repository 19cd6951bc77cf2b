// Package gpu implements the ATTILA GPU pipeline (paper §2.2) on the
// box-and-signal simulation framework: command processor, streamer,
// primitive assembly, clipper, triangle setup, fragment generation,
// Hierarchical Z, Z and stencil test with a compressed Z cache, the
// perspective-corrected interpolator, the Fragment FIFO
// crossbar/scheduler, multithreaded unified (or partitioned) shader
// units with texture units and caches, color write, the memory
// controller and the DAC.
package gpu

import (
	"attila/internal/mem"
)

// ScheduleMode selects how shader inputs are scheduled (the two
// configurations of the paper's §5 case study).
type ScheduleMode uint8

// Scheduling modes.
const (
	// ScheduleWindow keeps a window of threads per shader and
	// issues from any ready thread, enabling out-of-order thread
	// execution that hides texture latency.
	ScheduleWindow ScheduleMode = iota
	// ScheduleInOrderQueue executes shader inputs strictly in
	// order: a shader runs one thread at a time and stalls while it
	// waits on a texture access.
	ScheduleInOrderQueue
)

// String names the mode.
func (m ScheduleMode) String() string {
	if m == ScheduleWindow {
		return "window"
	}
	return "inorder"
}

// FGenAlgorithm selects the fragment generator implementation: the
// tile-by-tile scanner described for Neon [16] or McCool's recursive
// descent [15] (the paper's default).
type FGenAlgorithm uint8

// Fragment generation algorithms.
const (
	FGenRecursive FGenAlgorithm = iota
	FGenScanline
)

// Config holds every architectural parameter of the simulated GPU
// (the paper's configuration files expose over 100 parameters; the
// important ones are reproduced here, with Table 1 and Table 2 as the
// baseline).
type Config struct {
	Name string

	// Shader organization.
	UnifiedShaders   bool
	NumShaders       int // unified (or fragment) shader units
	NumVertexShaders int // dedicated vertex shaders (non-unified only)
	// ThreadsPerShader bounds resident threads per unit (1 thread =
	// 1 fragment quad or 4 vertices). The baseline fragment shader
	// supports 112+16 inputs = 28+4 threads; vertex shaders 12.
	ThreadsPerShader       int
	VertexThreadsPerShader int
	// PhysRegs* are the physical temporary-register pools that
	// further limit thread admission (§2.3): a thread needs
	// 4*TempsUsed registers.
	PhysRegsFragment int
	PhysRegsVertex   int
	ShaderIssueRate  int // instructions issued per shader per cycle
	// Execution latencies per opcode class (1..9 cycle range).
	ExecLatSimple int
	ExecLatMAD    int
	ExecLatScalar int

	// Shader input scheduling (§5 case study).
	Schedule      ScheduleMode
	WindowThreads int // global thread window / input queue capacity

	// Geometry front end (Table 1).
	StreamerQueue      int // vertex request queue
	VertexCacheEntries int // post-shading vertex cache
	VertexFetchLines   int // 64-byte attribute fetch buffer lines
	PAQueue            int
	ClipQueue          int
	ClipLatency        int
	SetupQueue         int
	SetupLatency       int
	FGenQueue          int
	FGenTilesPerCycle  int
	FGenAlgorithm      FGenAlgorithm

	// Hierarchical Z.
	HZEnabled       bool
	HZQueue         int
	HZTilesPerCycle int

	// Fragment back end.
	NumROPs          int // paired Z-stencil + color write units
	ROPQueue         int
	ROPFragsPerCycle int
	ZCompression     bool
	FastClear        bool
	EarlyZ           bool // allow Z/stencil before shading when legal

	// Interpolator (latency 2 to 8 by active attribute count).
	InterpQuadsPerCycle int
	InterpBaseLat       int
	InterpPerAttrLat    int
	InterpQueue         int

	// Texture units.
	NumTextureUnits int
	TexQueue        int
	TexelsPerCycle  int // cache read ports: 4 = one bilinear/cycle
	TexFilterLat    int

	// Caches (Table 2 geometry by default).
	TexCacheSets, TexCacheAssoc     int
	ZCacheSets, ZCacheAssoc         int
	ColorCacheSets, ColorCacheAssoc int

	// Memory system.
	Memory      mem.ControllerConfig
	GPUMemBytes int
	SystemBusBW int // bytes/cycle from system memory (PCIe-like)

	// DACRefreshCycles models the display refresh traffic the paper
	// chose to support (§2.2): every N cycles the DAC reads one
	// 64-byte piece of the front buffer. 0 disables refresh (the
	// default, so experiment numbers isolate rendering traffic).
	DACRefreshCycles int64

	// Statistics sampling interval in cycles (paper figures sample
	// every 10K cycles).
	StatInterval int64

	// ClockMHz scales cycle counts to frame rates for reporting.
	ClockMHz int

	// Workers is ignored: a vestige of the parallel clock loop, kept
	// because bench/scenes.go still sets it for ut2004-par2 (ROADMAP
	// item 7). > 1 logs one warning per process; a run always uses one
	// clock goroutine.
	Workers int

	// WatchdogWindow arms the no-progress watchdog: a run with no
	// signal traffic and no box progress for this many consecutive
	// cycles aborts with a structured deadlock report instead of
	// spinning to the cycle limit. 0 (the presets' value) disables
	// it. Purely diagnostic — it never alters simulation results.
	WatchdogWindow int64
}

// Baseline returns the paper's baseline architecture (Tables 1 and
// 2): four non-unified vertex shaders, two fragment shaders
// processing 4 fragments per cycle, two ROP pairs, four 16-byte GDDR
// channels.
func Baseline() Config {
	return Config{
		Name:                   "baseline",
		UnifiedShaders:         false,
		NumShaders:             2,
		NumVertexShaders:       4,
		ThreadsPerShader:       28, // 112 fragment inputs in flight
		VertexThreadsPerShader: 12,
		PhysRegsFragment:       448,
		PhysRegsVertex:         96,
		ShaderIssueRate:        1,
		ExecLatSimple:          1,
		ExecLatMAD:             3,
		ExecLatScalar:          9,
		Schedule:               ScheduleWindow,
		WindowThreads:          64,
		StreamerQueue:          48,
		VertexCacheEntries:     16,
		VertexFetchLines:       16,
		PAQueue:                8,
		ClipQueue:              4,
		ClipLatency:            6,
		SetupQueue:             12,
		SetupLatency:           10,
		FGenQueue:              16,
		FGenTilesPerCycle:      2,
		FGenAlgorithm:          FGenRecursive,
		HZEnabled:              true,
		HZQueue:                64,
		HZTilesPerCycle:        2,
		NumROPs:                2,
		ROPQueue:               64,
		ROPFragsPerCycle:       4,
		ZCompression:           true,
		FastClear:              true,
		EarlyZ:                 true,
		InterpQuadsPerCycle:    2,
		InterpBaseLat:          2,
		InterpPerAttrLat:       1,
		InterpQueue:            32,
		NumTextureUnits:        2,
		TexQueue:               16,
		TexelsPerCycle:         4,
		TexFilterLat:           4,
		TexCacheSets:           16,
		TexCacheAssoc:          4,
		ZCacheSets:             16,
		ZCacheAssoc:            4,
		ColorCacheSets:         16,
		ColorCacheAssoc:        4,
		Memory:                 mem.DefaultControllerConfig(),
		GPUMemBytes:            64 << 20,
		SystemBusBW:            8,
		StatInterval:           10000,
		ClockMHz:               600,
	}
}

// BaselineUnified returns the baseline with the unified shader model:
// the same four-plus-two shader budget pooled into unified units.
func BaselineUnified() Config {
	c := Baseline()
	c.Name = "baseline-unified"
	c.UnifiedShaders = true
	c.NumShaders = 4
	c.NumVertexShaders = 0
	c.PhysRegsFragment = 448 + 96
	return c
}

// CaseStudy returns the §5 test configuration: three unified shaders,
// one ROP pair, two 64-bit DDR buses, a global 96-thread window (384
// inputs) with 1536 physical registers, and a configurable number of
// texture units (3 to 1).
func CaseStudy(textureUnits int, mode ScheduleMode) Config {
	c := BaselineUnified()
	c.Name = "casestudy"
	c.NumShaders = 3
	c.NumROPs = 1
	c.NumTextureUnits = textureUnits
	c.Schedule = mode
	c.WindowThreads = 96
	c.ThreadsPerShader = 32
	c.PhysRegsFragment = 1536
	c.Memory.Channels = 2
	return c
}

// Embedded returns the low-end configuration of the paper's [2]: a
// single unified shader doing all vertex and fragment work, one ROP,
// one narrow memory channel and halved caches.
func Embedded() Config {
	c := BaselineUnified()
	c.Name = "embedded"
	c.NumShaders = 1
	c.NumROPs = 1
	c.NumTextureUnits = 1
	c.ThreadsPerShader = 16
	c.WindowThreads = 16
	c.PhysRegsFragment = 256
	c.FGenTilesPerCycle = 1
	c.HZTilesPerCycle = 1
	c.InterpQuadsPerCycle = 1
	c.Memory.Channels = 1
	c.Memory.ChannelBW = 8
	c.TexCacheSets = 8
	c.ZCacheSets = 8
	c.ColorCacheSets = 8
	c.GPUMemBytes = 16 << 20
	c.ClockMHz = 200
	return c
}

// HighEnd returns a scaled-up future configuration in the spirit of
// the paper's [1]: eight unified shaders, four ROP pairs, four
// texture units.
func HighEnd() Config {
	c := BaselineUnified()
	c.Name = "highend"
	c.NumShaders = 8
	c.NumROPs = 4
	c.NumTextureUnits = 4
	c.WindowThreads = 128
	c.PhysRegsFragment = 2048
	c.Memory.Channels = 4
	c.Memory.ChannelBW = 32
	return c
}

// Validate checks the configuration for values the pipeline cannot
// operate with: a queue with no slot or a port with no bandwidth
// stalls forever, and a wire with no latency or a cache with no set
// panics. StreamerQueue is not checked (no box reads it), nor are the
// latencies a box clamps to 1 (execution, texture filtering).
func (c *Config) Validate() error {
	atLeastOne := []struct {
		name string
		v    int
	}{
		{"NumShaders", c.NumShaders}, {"NumROPs", c.NumROPs}, {"NumTextureUnits", c.NumTextureUnits},
		{"ThreadsPerShader", c.ThreadsPerShader}, {"PhysRegsFragment", c.PhysRegsFragment},
		{"ShaderIssueRate", c.ShaderIssueRate}, {"WindowThreads", c.WindowThreads},
		{"PAQueue", c.PAQueue}, {"ClipQueue", c.ClipQueue}, {"ClipLatency", c.ClipLatency},
		{"SetupQueue", c.SetupQueue}, {"SetupLatency", c.SetupLatency},
		{"FGenQueue", c.FGenQueue}, {"FGenTilesPerCycle", c.FGenTilesPerCycle},
		{"HZQueue", c.HZQueue}, {"HZTilesPerCycle", c.HZTilesPerCycle}, {"ROPQueue", c.ROPQueue},
		{"InterpQuadsPerCycle", c.InterpQuadsPerCycle}, {"InterpBaseLat", c.InterpBaseLat},
		{"InterpQueue", c.InterpQueue}, {"TexQueue", c.TexQueue}, {"TexelsPerCycle", c.TexelsPerCycle},
		{"TexCacheSets", c.TexCacheSets}, {"TexCacheAssoc", c.TexCacheAssoc},
		{"ZCacheSets", c.ZCacheSets}, {"ZCacheAssoc", c.ZCacheAssoc},
		{"ColorCacheSets", c.ColorCacheSets}, {"ColorCacheAssoc", c.ColorCacheAssoc},
		{"SystemBusBW", c.SystemBusBW}, {"Memory.Channels", c.Memory.Channels},
		{"Memory.ChannelBW", c.Memory.ChannelBW}, {"Memory.QueuePerUnit", c.Memory.QueuePerUnit},
		{"Memory.Interleave", int(c.Memory.Interleave)}, {"Memory.PageSize", int(c.Memory.PageSize)},
	}
	for _, f := range atLeastOne {
		if f.v < 1 {
			return &ConfigError{Config: c.Name, Msg: f.name + " must be >= 1"}
		}
	}
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.UnifiedShaders || c.NumVertexShaders >= 1, "non-unified config needs vertex shaders"},
		{c.UnifiedShaders || c.VertexThreadsPerShader >= 1 && c.PhysRegsVertex >= 1,
			"non-unified config needs vertex threads and registers"},
		{c.VertexFetchLines >= 2, "VertexFetchLines must be >= 2"},
		{c.ROPFragsPerCycle >= 4, "ROPFragsPerCycle must cover a quad"},
		{c.GPUMemBytes >= 1<<20, "GPU memory too small"},
		{c.StatInterval >= 0, "StatInterval must be >= 0"},
		{c.Workers >= 0, "Workers must be >= 0"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return &ConfigError{Config: c.Name, Msg: ch.msg}
		}
	}
	return nil
}

// ConfigError reports an invalid configuration.
type ConfigError struct {
	Config string
	Msg    string
}

func (e *ConfigError) Error() string {
	return "gpu: config " + e.Config + ": " + e.Msg
}
