package gpu_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/workload"
)

// progressFields returns every core.Progress field of the registered
// boxes: what the boxes count as forward progress.
func progressFields(sim *core.Simulator) []*core.Progress {
	ptype := reflect.TypeOf(core.Progress{})
	var out []*core.Progress
	for _, b := range sim.Boxes() {
		v := reflect.ValueOf(b).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == ptype {
				out = append(out, (*core.Progress)(unsafe.Pointer(f.UnsafeAddr())))
			}
		}
	}
	return out
}

// The watchdog's fingerprint is every wire's traffic plus every
// Progress counter the boxes registered (StatManager.ShadowProgress)
// plus the boxes' Steps: declaring a counter is what makes the
// watchdog count it.
func TestWatchdogCountsEveryProgress(t *testing.T) {
	cfg := gpu.BaselineUnified()
	cfg.WatchdogWindow = 1_000_000
	pipe, err := gpu.New(cfg, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	cmds, _, err := workload.Build("ut2004", pipe, workload.Params{Width: 64, Height: 48, Frames: 1, Aniso: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Run(cmds, 5_000_000); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, sig := range pipe.Sim.Binder.Signals() {
		p, c := sig.Traffic()
		want += p + c
	}
	fields := progressFields(pipe.Sim)
	for _, p := range fields {
		if pipe.Sim.Stats.Lookup(p.StatName()) != core.Stat(&p.Counter) {
			t.Errorf("progress counter %q is not registered", p.StatName())
		}
		want += uint64(p.Value())
	}
	for _, b := range pipe.Sim.Boxes() {
		for _, s := range core.InfoOf(b).Steps {
			want += uint64(*s)
		}
	}
	if len(fields) == 0 {
		t.Fatal("no progress counters found")
	}
	if _, fp, ok := pipe.Sim.WatchdogProgress(); !ok || fp != want {
		t.Fatalf("watchdog fingerprint %d (armed %v), want traffic + %d progress counters + steps = %d", fp, ok, len(fields), want)
	}
}

// Every "*.busyCycles" statistic is the Busy of the box that keeps it,
// and every box's Busy is one: the metrics bus's utilization list is
// the busy-cycle counters.
func TestBusyIsTheBusyCyclesStat(t *testing.T) {
	pipe, err := gpu.New(gpu.Baseline(), 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	busy := map[core.Stat]string{}
	for _, b := range pipe.Sim.Boxes() {
		c := core.InfoOf(b).Busy
		if c == nil {
			continue
		}
		if !strings.HasSuffix(c.StatName(), ".busyCycles") || pipe.Sim.Stats.Lookup(c.StatName()) != core.Stat(c) {
			t.Errorf("%s: Busy is %q, not a registered busyCycles stat", b.BoxName(), c.StatName())
		}
		busy[c] = b.BoxName()
	}
	n := 0
	for _, name := range pipe.Sim.Stats.Names() {
		if strings.HasSuffix(name, ".busyCycles") {
			n++
			if _, ok := busy[pipe.Sim.Stats.Lookup(name)]; !ok {
				t.Errorf("%s is no box's Busy", name)
			}
		}
	}
	if n != len(busy) {
		t.Errorf("%d busyCycles stats, %d boxes with Busy", n, len(busy))
	}
}

// The deadlock report's capacity of the primitive assembly queue is
// the configured one: the Streamer.VtxOut flow's credits.
func TestPAQueueCapacityIsConfigured(t *testing.T) {
	cfg := gpu.Baseline()
	cfg.PAQueue = 4
	pipe, err := gpu.New(cfg, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pipe.Sim.Boxes() {
		if b.BoxName() != "PrimAssembly" {
			continue
		}
		for _, q := range core.InfoOf(b).Queues() {
			if q.Name == "PA.queue" {
				if q.Capacity != 4 {
					t.Fatalf("PA.queue capacity %d, want the configured 4", q.Capacity)
				}
				return
			}
		}
	}
	t.Fatal("no PA.queue reported")
}
