package gpu_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/core/coretest"
	"attila/internal/gpu"
)

// goldenScene is one row of the root package's TestGoldenFrames.
type goldenScene struct {
	name, generator string
	cfg             gpu.Config
	workers, frames int
}

var goldenScenes = []goldenScene{
	{"ut2004-tex", "ut2004", gpu.BaselineUnified(), 0, 1},
	{"doom3-stencil", "doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 1},
	{"spinner-geom", "spinner", gpu.Embedded(), 0, 1},
	{"ut2004-par2", "ut2004", gpu.BaselineUnified(), 2, 1},
	{"ut2004-inorder", "ut2004", gpu.CaseStudy(2, gpu.ScheduleInOrderQueue), 0, 1},
	{"spinner-3f", "spinner", gpu.Embedded(), 0, 3},
	{"doom3-2f", "doom3", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 2},
	{"ut2004-3f", "ut2004", gpu.BaselineUnified(), 0, 3},
	{"ut2004-1tu", "ut2004", gpu.CaseStudy(1, gpu.ScheduleWindow), 0, 2},
}

// oldQuiesced is Pipeline.Quiesced in the clause order of 91dbc46:
// every wire, the memory controller, then every box.
func oldQuiesced(p *gpu.Pipeline, sigs []*core.Signal) bool {
	for _, s := range sigs {
		if s.Pending() {
			return false
		}
	}
	if p.MemController().Pending() || !p.CP.SafePoint() {
		return false
	}
	for _, b := range p.Sim.Boxes() {
		if quiet := core.InfoOf(b).Quiet; quiet != nil && !quiet() {
			return false
		}
	}
	return true
}

// walkModel is the watchdog's check of 91dbc46, which walked every
// wire and called every reporter each cycle.
type walkModel struct {
	sigs       []*core.Signal
	boxes      []core.Box
	mcRd, mcWr core.Stat
	watchdogState
}

// watchdogState is what a core.Sim section holds of the watchdog.
type watchdogState struct {
	lastProgress                  int64
	lastTotal, prevProd, prevCons uint64
}

func newWalkModel(p *gpu.Pipeline) *walkModel {
	return &walkModel{
		sigs:  p.Sim.Binder.Signals(),
		boxes: p.Sim.Boxes(),
		mcRd:  p.Sim.Stats.Lookup("MC.readBytes"),
		mcWr:  p.Sim.Stats.Lookup("MC.writeBytes"),
	}
}

func (m *walkModel) check(cycle int64) {
	var prod, cons uint64
	for _, sig := range m.sigs {
		p, c := sig.Traffic()
		prod += p
		cons += c
	}
	total := prod + cons
	for _, b := range m.boxes {
		if n, ok := gpu.OldProgressCount(b); ok {
			total += uint64(n)
		}
	}
	total += uint64(int64(m.mcRd.Value() + m.mcWr.Value()))
	m.prevProd, m.prevCons = prod, cons
	if total != m.lastTotal {
		m.lastTotal = total
		m.lastProgress = cycle
	}
}

// watchdogSection decodes the watchdog fields of a core.Sim section.
func watchdogSection(tb testing.TB, section []byte) (m watchdogState) {
	tb.Helper()
	d := chkpt.NewDecoder(section)
	d.I64() // cycle
	d.U64() // next object ID
	if !d.Bool() {
		tb.Fatal("core.Sim section carries no watchdog state")
	}
	m.lastProgress, m.lastTotal, m.prevProd, m.prevCons = d.I64(), d.U64(), d.U64(), d.U64()
	if err := d.Err(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// pipeMachine is the differential oracle's machine for a pipeline to
// run cmds: its frames, and with interval > 0 a checkpoint of the named
// workload every interval cycles.
func pipeMachine(tb testing.TB, pipe *gpu.Pipeline, cmds []gpu.Command, workload string, interval int64) *coretest.Machine {
	const budget = 500_000_000
	m := &coretest.Machine{
		Sim:    pipe.Sim,
		Run:    func() error { return pipe.Run(cmds, budget) },
		Resume: func() error { return pipe.ResumeContext(context.Background(), budget) },
		Restore: func(file []byte) error {
			snap, err := chkpt.Read(bytes.NewReader(file))
			if err != nil {
				return err
			}
			return pipe.RestoreCheckpoint(snap, cmds)
		},
		Frames: func() (pix [][]byte) {
			for _, f := range pipe.Frames() {
				pix = append(pix, f.Pix)
			}
			return pix
		},
	}
	if interval > 0 {
		m.Path = filepath.Join(tb.TempDir(), "scene.ckpt")
		m.Checkpoints = pipe.EnableCheckpoints(m.Path, workload, interval)
		m.NoFinalCapture = true
	}
	return m
}

// goldenMachine builds a golden scene the way jobd runs a job —
// watchdog armed, an interval row every rows cycles, checkpoints every
// interval cycles — and holds the 91dbc46 quiesce predicate and
// watchdog walk beside the real ones at every barrier.
func goldenMachine(tb testing.TB, c goldenScene, workers int, rows, interval int64) *coretest.Machine {
	cfg := c.cfg
	cfg.Workers = workers
	cfg.StatInterval = rows
	cfg.WatchdogWindow = 1_000_000 // not jobd's 50M: a missed wake fails sooner, with the same files
	pipe, cmds := buildGolden(tb, c, cfg)
	m := pipeMachine(tb, pipe, cmds, c.generator, interval)
	model := newWalkModel(pipe)
	restore := m.Restore
	m.Restore = func(file []byte) error {
		// What the restored watchdog starts from is what the file holds.
		snap, err := chkpt.Read(bytes.NewReader(file))
		if err != nil {
			return err
		}
		model.watchdogState = watchdogSection(tb, snap.Section("core.Sim"))
		return restore(file)
	}
	mismatches := 0
	pipe.Sim.OnEndCycle(func(cycle int64) {
		if got, want := pipe.Quiesced(), oldQuiesced(pipe, model.sigs); got != want && mismatches < 5 {
			mismatches++
			tb.Errorf("cycle %d: Quiesced() = %v, the old clause order says %v", cycle, got, want)
		}
		model.check(cycle)
		since, fp, ok := pipe.Sim.WatchdogProgress()
		var e chkpt.Encoder
		pipe.Sim.SnapshotState(&e)
		sec := watchdogSection(tb, e.Bytes())
		if (!ok || since != model.lastProgress || fp != model.lastTotal || sec != model.watchdogState) && mismatches < 5 {
			mismatches++
			tb.Errorf("cycle %d: watchdog (since %d, fingerprint %d; section %+v), the per-cycle walk says %+v",
				cycle, since, fp, sec, model.watchdogState)
		}
	})
	return m
}

// checkpointIdentity hashes what a checkpoint file says: its header
// (magic, version, payload CRC and length) and its payload, which
// container version 3 writes as it is and versions 1 and 2 gzipped (the
// deflated bytes followed from the payload and the toolchain's deflate).
// The chkpt tests hold Encode to the bytes of the assembled payload.
func checkpointIdentity(t *testing.T, h io.Writer, c coretest.Capture) {
	t.Helper()
	const header = 10 + 4 + 4 + 8
	if len(c.File) < header {
		t.Fatalf("checkpoint at cycle %d is %d bytes", c.Cycle, len(c.File))
	}
	payload := c.File[header:]
	if binary.LittleEndian.Uint32(c.File[10:]) < 3 {
		zr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if payload, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	binary.Write(h, binary.LittleEndian, c.Cycle)
	h.Write(c.File[:header])
	h.Write(payload)
}

// goldenInterval is a golden scene's checkpoint interval: the spinner
// scenes end before cycle 20000 and take a shorter one.
func goldenInterval(c goldenScene) int64 {
	if c.generator == "spinner" {
		return 4000
	}
	return 20000
}

// TestParkedClockIsNoOp puts the TestGoldenFrames scenes, and one with
// dedicated vertex shaders, through the differential oracle the way jobd
// runs a job: a box parks only where further clocks would change nothing
// but the stall counters it sleeps through, so clocking the parked boxes
// anyway, or restoring from any checkpoint on the way, must change
// nothing any reader sees.
//
// The interval rows, and with them the metrics windows that read every
// box's queues, come every 200 cycles, and every cycle on the spinner
// scenes, short enough to hold a row per cycle (a row is one float per
// statistic; ut2004-3f at interval 1 would keep 250 MB of them).
func TestParkedClockIsNoOp(t *testing.T) {
	for _, c := range append(goldenScenes[:len(goldenScenes):len(goldenScenes)],
		goldenScene{"baseline-split", "ut2004", gpu.Baseline(), 0, 1}) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			rows := int64(200)
			if c.generator == "spinner" {
				rows = 1
			}
			out := coretest.Check(t, func(tb testing.TB) *coretest.Machine {
				return goldenMachine(tb, c, c.workers, rows, goldenInterval(c))
			})
			if len(out.Frames) != c.frames || out.Windows == 0 {
				t.Errorf("%d frames and %d metrics windows, want %d frames", len(out.Frames), out.Windows, c.frames)
			}
		})
	}
}

// TestGoldenCheckpoints pins the golden scenes' checkpoint files, as a
// parked run with a row every 1000 cycles writes them: which cycles
// capture, and every byte the files say. No scene captures after its
// last command; every capture before it holds the meta and sections
// 91dbc46 wrote (the pins moved once since, when container version 3
// stopped gzipping the payload and dropped the epoch slot).
// ut2004-par2 is the benchmark's workload of that name, which still sets
// the ignored Workers: 2 (ROADMAP item 7): its files are ut2004-tex's,
// byte for byte. spinner-geom's one frame ends with its one safe point,
// so it captures nothing.
//
// The last subtest restores a file an older attilasim wrote after the
// last command (lastCommandFixture) into the same scene, beside every
// capture of its own, to the outputs of the uninterrupted run.
func TestGoldenCheckpoints(t *testing.T) {
	pinned := map[string]struct {
		cycles []int64
		sha    string
	}{
		"ut2004-tex": {[]int64{39895},
			"1891a0d6b1d65e8e41974ba39db6bc5f81c8de3bc05f6b213b162f8a350b8893"},
		"doom3-stencil": {[]int64{69549},
			"df8529b2dbd701b3f35edad649cef776329050618b0ffc6b38874cef2f631b7f"},
		"spinner-geom": {nil,
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		"ut2004-par2": {[]int64{39895},
			"1891a0d6b1d65e8e41974ba39db6bc5f81c8de3bc05f6b213b162f8a350b8893"},
		"ut2004-inorder": {[]int64{39208},
			"3afd72517d04124b6661cc41887634a91db51ceb41cc85fb6104010ea85c111c"},
		"spinner-3f": {[]int64{9573, 14300},
			"88c2c7f88b14f565a9c020f3881f37190b2df44483a0020b899e0fb7f2bdfea8"},
		"doom3-2f": {[]int64{69549, 111120},
			"42b7b59b28da486e57b649227b1e6d8914a6f0e3760727719da132b7bbc04341"},
		"ut2004-3f": {[]int64{39895, 95851, 155592},
			"568dfee7a15d62fa98c564aea3c7dd822567bf2436715ff09f1526c86bcd5c7a"},
		"ut2004-1tu": {[]int64{39208, 122445},
			"2b8e5d867312c94c4a9a13643ec344b4e19f6eb4a6a56947d9c949226ab275c3"},
	}
	for _, c := range goldenScenes {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			pin := pinned[c.name]
			out := coretest.Record(t, goldenMachine(t, c, c.workers, 1000, goldenInterval(c)))
			if out.Err != "" {
				t.Fatal(out.Err)
			}
			var cycles []int64
			h := sha256.New()
			for _, cp := range out.Captures {
				cycles = append(cycles, cp.Cycle)
				checkpointIdentity(t, h, cp)
			}
			if !slices.Equal(cycles, pin.cycles) {
				t.Errorf("captured at cycles %v, pinned %v", cycles, pin.cycles)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha {
				t.Errorf("checkpoint sha256 = %s, pinned %s", got, pin.sha)
			}
		})
	}
	t.Run("older-binary-fixture", func(t *testing.T) {
		t.Parallel()
		fixture := lastCommandFixture(t)
		out := coretest.Check(t, func(tb testing.TB) *coretest.Machine {
			m := cliMachine(tb, 0, goldenInterval(goldenScenes[0]))
			m.Fixtures = [][]byte{fixture}
			return m
		})
		if len(out.Captures) == 0 {
			t.Error("the scene captures nothing of its own to restore beside the fixture")
		}
	})
}

// lastCommandFixture reads a checkpoint that attilasim wrote at
// 01f498b, in container version 2, of ut2004 at 64x48, one frame:
//
//	tracegen -workload ut2004 -width 64 -height 48 -frames 1 -out ut.attila
//	attilasim -trace ut.attila -config baseline-unified \
//	    -checkpoint-interval 20000 -checkpoint ut2004-64x48-final-v2.ckpt
//
// It holds the run's last capture, at cycle 95851, the barrier its last
// command completed on, taken without a watchdog.
// Pipeline.EnableCheckpoints takes no capture there any more.
func lastCommandFixture(tb testing.TB) []byte {
	tb.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "ut2004-64x48-final-v2.ckpt"))
	if err != nil {
		tb.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(file[10:]); v != 2 {
		tb.Fatalf("the fixture is container version %d, not 2", v)
	}
	return file
}

// cliMachine is the golden ut2004-tex scene as attilasim runs it, with
// the preset's own statistics interval and the given watchdog window and
// checkpoint interval (0: none of either).
func cliMachine(tb testing.TB, window, interval int64) *coretest.Machine {
	c := goldenScenes[0]
	cfg := c.cfg
	cfg.WatchdogWindow = window
	pipe, cmds := buildGolden(tb, c, cfg)
	return pipeMachine(tb, pipe, cmds, c.generator, interval)
}

// A file written without a watchdog holds no progress view, so a
// pipeline that arms one cannot tell from it the barrier the last
// command completed on from the final barrier: restored there, it must
// run the cycle the command processor still needs, not stop. The
// fixture an older attilasim wrote is such a file: it captures at
// 95851, the scene's completion barrier, and the scene ends on 95853.
func TestUnguardedCaptureRestoresIntoGuardedRun(t *testing.T) {
	ref := coretest.Record(t, cliMachine(t, 0, 0))
	if ref.Err != "" || ref.Cycles != 95853 {
		t.Fatalf("the uninterrupted run: %d cycles (%q), the fixture's ran 95853", ref.Cycles, ref.Err)
	}
	m := cliMachine(t, 1_000_000, 0)
	if err := m.Restore(lastCommandFixture(t)); err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := m.Sim.Stats.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := m.Sim.Cycle(); got != ref.Cycles || !bytes.Equal(csv.Bytes(), ref.CSV) {
		t.Errorf("restored with a watchdog armed: %d cycles (CSV equal: %v), the uninterrupted run %d",
			got, bytes.Equal(csv.Bytes(), ref.CSV), ref.Cycles)
	}
}

// Once the command processor has taken its last command no capture is
// taken, a forced one included: golden scenes asked for one at every
// barrier capture at every safe point before it and at none after,
// though there are safe points after it too.
func TestNoCaptureAfterLastCommand(t *testing.T) {
	for _, c := range []goldenScene{goldenScenes[0], goldenScenes[1], goldenScenes[5]} {
		pipe, cmds := buildGolden(t, c, c.cfg)
		eng := pipe.EnableCheckpoints(filepath.Join(t.TempDir(), "last.ckpt"), c.generator, 0)
		var captured, safeAfter int64
		pipe.Sim.OnEndCycle(func(cycle int64) { // after the engine's
			done := pipe.CP.Taken() == len(cmds)
			if eng.Count() != captured {
				captured = eng.Count()
				if done {
					t.Errorf("%s: a capture at cycle %d, after the last command", c.name, cycle)
				}
			}
			if done && pipe.Quiesced() {
				safeAfter++
			}
			eng.ForceNext()
		})
		if err := pipe.Run(cmds, 500_000_000); err != nil {
			t.Fatal(err)
		}
		if captured == 0 || safeAfter == 0 {
			t.Errorf("%s: %d captures, %d safe points after the last command: the scene shows nothing", c.name, captured, safeAfter)
		}
	}
}

// Config.Workers is a vestige of the parallel clock loop (ROADMAP item
// 7): on the doom3 and ut2004 golden scenes a run that asks for 2 or 8
// workers leaves the outputs of the Workers: 0 run, mid-run checkpoint
// files included, byte for byte; a process warns once however many such
// pipelines it builds; and Validate still rejects a negative count.
func TestWorkersIsIgnored(t *testing.T) {
	var log bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&log, nil)))
	gpu.ResetWorkersWarning()
	for _, c := range goldenScenes {
		if c.name != "doom3-stencil" && c.name != "ut2004-tex" {
			continue
		}
		ref := coretest.Record(t, goldenMachine(t, c, 0, 1000, 20000))
		if len(ref.Captures) == 0 || ref.Err != "" {
			t.Fatalf("%s: %d mid-run checkpoints to compare, error %q", c.name, len(ref.Captures), ref.Err)
		}
		for _, workers := range []int{2, 8} {
			got := coretest.Record(t, goldenMachine(t, c, workers, 1000, 20000))
			for _, d := range ref.Diff(fmt.Sprintf("on %s with Workers: %d", c.name, workers), got) {
				t.Error(d)
			}
		}
	}
	if n := strings.Count(log.String(), "Config.Workers is ignored"); n != 1 {
		t.Errorf("%d warnings for an ignored Workers, want 1 per process:\n%s", n, log.String())
	}
	cfg := gpu.Baseline()
	cfg.Workers = -1
	if cfg.Validate() == nil {
		t.Error("Validate accepts Workers: -1")
	}
}
