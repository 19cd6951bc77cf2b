package gpu

import (
	"sync"
	"unsafe"

	"attila/internal/core"
)

// OldProgressCount is ProgressCount as every pipeline box implemented
// it at 91dbc46, when the watchdog called it on each reporter each
// cycle. The external tests keep it as the model the collected
// progress terms must add up to.
func OldProgressCount(b core.Box) (int64, bool) {
	switch x := b.(type) {
	case *CommandProcessor:
		return int64(x.statCmds.Value()+x.statBatches.Value()+x.statFrames.Value()+x.statBytesUp.Value()) + int64(x.pc), true
	case *Streamer:
		return int64(x.statVtx.Value() + x.statVCacheHit.Value() + x.statVCacheMis.Value()), true
	case *FragmentGenerator:
		return int64(x.statTiles.Value() + x.statQuads.Value()), true
	case *HierarchicalZ:
		return int64(x.statTiles.Value() + x.statCulled.Value()), true
	case *FragmentFIFO:
		return int64(x.statVtxThreads.Value() + x.statFragThreads.Value() + x.statKilled.Value()), true
	case *ShaderUnit:
		return int64(x.statInstr.Value()), true
	case *TextureUnit:
		return int64(x.statReqs.Value() + x.statTexels.Value()), true
	case *ZStencil:
		return int64(x.statQuads.Value() + x.statCulled.Value()), true
	case *ColorWrite:
		return int64(x.statQuads.Value() + x.statFrags.Value()), true
	}
	return 0, false
}

// TextureUnits exposes the pipeline's texture units, and LiveIdle the
// condition a unit's published quiesce flag snapshots, to the external
// tests.
func (p *Pipeline) TextureUnits() []*TextureUnit { return p.tus }

func (t *TextureUnit) LiveIdle() bool { return t.idle() }

// Streaming reports that the command processor feeds the system bus.
func (cp *CommandProcessor) Streaming() bool { return cp.streaming() }

// Taken reports how many commands the command processor has taken.
func (cp *CommandProcessor) Taken() int { return cp.pc }

// ResetWorkersWarning forgets that this process warned about an
// ignored Config.Workers, so a test can count the warnings of a fresh
// process.
func ResetWorkersWarning() { warnWorkers = sync.Once{} }

// SetRunAhead sets, for the runs that follow, the shortest shader
// segment handed to the run's helper goroutine (math.MaxInt: none) and a
// function the helper calls before each Step it runs (nil: none).
func (p *Pipeline) SetRunAhead(min int, beforeStep func()) {
	p.ahead.min, p.ahead.beforeStep = min, beforeStep
}

// MuteRetirement stops every batch of the command processor announcing
// its retirement: nothing a batch does wakes the command processor or
// triangle setup.
func (p *Pipeline) MuteRetirement() { p.CP.wakes = batchWakes{} }

// PoolKind is one free list of a pipeline's pool: the objects it has
// made, the objects it holds, and the bytes of one object.
type PoolKind struct {
	Name       string
	Made, Idle int
	Size       uintptr
}

// Pools reports the free lists of the pipeline's pool.
func (p *Pipeline) Pools() []PoolKind {
	pl := p.ffifo.pool
	return []PoolKind{poolKind("groups", &pl.groups), poolKind("vertices", &pl.vertices),
		poolKind("tris", &pl.tris), poolKind("setups", &pl.setups),
		poolKind("quads", &pl.quads), poolKind("tiles", &pl.tiles),
		poolKind("works", &pl.works), poolKind("inputs", &pl.inputs)}
}

func poolKind[T any](name string, l *freeList[T]) PoolKind {
	var x T
	return PoolKind{name, l.made, len(l.free) + len(l.slab), unsafe.Sizeof(x)}
}
