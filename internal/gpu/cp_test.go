package gpu

import (
	"testing"

	"attila/internal/core"
	"attila/internal/mem"
)

// A draw the command processor cannot send for want of credit builds no
// batch: the credit is checked before the batch is made, so a blocked
// Clock moves nothing — no batch ID drawn, no shader emulator built —
// and the CP may park until the credit folds.
func TestBlockedDrawBuildsNoBatch(t *testing.T) {
	sim := core.NewSimulator(0)
	cfg := Baseline()
	draw := pFlow(sim, "CommandProcessor", "Streamer", "CP.Draw", 1, 1, 0, 0) // no credit, ever
	dac := NewDAC(sim, nil, 0, nil)
	cp := NewCommandProcessor(sim, &cfg, &Framebuffer{}, draw, nil, nil, nil, dac)
	mem.NewController(sim, cfg.Memory, mem.NewGPUMemory(1<<16), []string{"CP", "DAC"})
	cp.SetCommands([]Command{CmdDraw{State: &DrawState{}}})
	for cycle := int64(0); cycle < 10; cycle++ {
		cp.Clock(cycle)
		sim.EndCycle(cycle)
	}
	if cp.nextBatchID != 0 || cp.pc != 0 || len(cp.active) != 0 {
		t.Errorf("blocked draw: batch IDs drawn up to %d, pc %d, %d batches active; want none, 0, none",
			cp.nextBatchID, cp.pc, len(cp.active))
	}
}
