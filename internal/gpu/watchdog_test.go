package gpu

import (
	"errors"
	"testing"

	"attila/internal/core"
)

// creditProducer pushes work through a Flow while credits last; once
// the consumer stops releasing, it goes silent — the GPU pipeline's
// deadlock signature.
type creditProducer struct {
	core.BoxBase
	out  *Flow
	ids  *core.IDSource
	sent int
}

func (p *creditProducer) Clock(cycle int64) {
	if p.out.CanSend(cycle, 1) {
		p.sent++
		p.out.Send(cycle, &core.DynObject{ID: p.ids.Next(), Tag: "work"})
	}
}

// Introspect reports the output flow's credit pool, exactly how the
// pipeline boxes report.
func (p *creditProducer) Introspect() core.BoxInfo {
	return core.BoxInfo{Queues: func() []core.QueueStat { return []core.QueueStat{p.out.QueueStat()} }}
}

// creditHoarder receives work but never calls Release: a consumer bug
// (or a lost retirement) that starves the producer forever.
type creditHoarder struct {
	core.BoxBase
	in   *Flow
	held int
}

func (h *creditHoarder) Clock(cycle int64) {
	h.held += len(h.in.Recv(cycle))
}

// A consumer that withholds Flow credits must trip the watchdog with
// a report naming the starved producer and its fully-absorbed credit
// pool instead of burning the cycle budget.
func TestFlowCreditDeadlockDetected(t *testing.T) {
	sim := core.NewSimulator(0)
	f := pFlow(sim, "Prod", "Hoard", "prod.work", 1, 1, 0, 4)
	p := &creditProducer{out: f, ids: &sim.IDs}
	p.Init("Prod")
	h := &creditHoarder{in: f}
	h.Init("Hoard")
	sim.Register(p)
	sim.Register(h)
	sim.SetWatchdog(50)
	sim.SetDone(func() bool { return false })

	err := sim.Run(1_000_000)
	if errors.Is(err, core.ErrCycleLimit) {
		t.Fatal("credit deadlock spun to the cycle limit")
	}
	var de *core.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock report, got %v", err)
	}
	if h.held != 4 || p.sent != 4 {
		t.Fatalf("flow moved %d/%d objects, want all 4 credits consumed", p.sent, h.held)
	}
	var found bool
	for _, b := range de.Report.Boxes {
		if b.Name != "Prod" {
			continue
		}
		for _, q := range b.Queues {
			if q.Name == "prod.work" && q.Occupied == 4 && q.Capacity == 4 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("report does not show Prod's prod.work credits at 4/4: %+v", de.Report.Boxes)
	}
	// Detection latency: last send at cycle 3, window 50.
	if c := sim.Cycle(); c > 100 {
		t.Fatalf("watchdog fired only at cycle %d", c)
	}
}

// A pipeline built with WatchdogWindow=0 must not arm the watchdog
// (presets default to disabled so results stay bit-identical), and
// the Config knob must reach the simulator when set.
func TestConfigWatchdogWiring(t *testing.T) {
	cfg := Baseline()
	cfg.GPUMemBytes = 8 << 20
	cfg.WatchdogWindow = 1000
	pipe, err := New(cfg, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	// An empty command stream finishes immediately; the armed watchdog
	// must not misfire on a healthy (if trivial) run.
	if err := pipe.Run(nil, 10_000); err != nil {
		t.Fatalf("armed watchdog broke a clean run: %v", err)
	}
}

// The pipeline's own boxes describe themselves, so real deadlock
// reports carry queue occupancy for every stage.
func TestPipelineBoxesReport(t *testing.T) {
	cfg := Baseline()
	cfg.GPUMemBytes = 8 << 20
	pipe, err := New(cfg, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pipe.Sim.Boxes() {
		if core.InfoOf(b).Queues == nil {
			t.Errorf("%s reports no queue occupancy", b.BoxName())
		}
	}
	if steps := pipe.CP.Introspect().Steps; len(steps) != 1 || steps[0] != &pipe.CP.pc {
		t.Errorf("the command processor's steps are %v, want its program counter", steps)
	}
}
