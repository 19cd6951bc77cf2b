package gpu_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/workload"
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

// supervisedWindow is the watchdog window jobd arms on every job.
const supervisedWindow = 50_000_000

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

	lastProgress       int64
	lastTotal          uint64
	prevProd, prevCons uint64
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
func watchdogSection(t *testing.T, section []byte) (m walkModel) {
	t.Helper()
	d := chkpt.NewDecoder(section)
	d.I64() // cycle
	d.U64() // next object ID
	if !d.Bool() {
		t.Fatal("core.Sim section carries no watchdog state")
	}
	m.lastProgress, m.lastTotal, m.prevProd, m.prevCons = d.I64(), d.U64(), d.U64(), d.U64()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

type capture struct {
	cycle int64
	file  []byte
}

type supervisedRun struct {
	cycles       int64
	frames       [][]byte
	summary, csv []byte
	captures     []capture
}

// runSupervised runs (or, given a checkpoint file, restores and
// finishes) a scene the way jobd runs a job — watchdog armed,
// checkpoints every interval cycles — and holds the 91dbc46 quiesce
// predicate and watchdog walk beside the real ones at every barrier.
func runSupervised(t *testing.T, c goldenScene, workers int, interval int64, restore []byte) *supervisedRun {
	t.Helper()
	cfg := c.cfg
	cfg.Workers = workers
	cfg.StatInterval = 1000
	cfg.WatchdogWindow = supervisedWindow
	pipe, err := gpu.New(cfg, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	cmds, _, err := workload.Build(c.generator, pipe, workload.Params{
		Width: 64, Height: 48, Frames: c.frames, Aniso: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scene.ckpt")
	eng := pipe.EnableCheckpoints(path, c.generator, interval)

	out := &supervisedRun{}
	model := newWalkModel(pipe)
	if restore != nil {
		snap, err := chkpt.Read(bytes.NewReader(restore))
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.RestoreCheckpoint(snap, cmds); err != nil {
			t.Fatal(err)
		}
		// What the restored watchdog starts from is what the file holds.
		r := watchdogSection(t, snap.Section("core.Sim"))
		model.lastProgress, model.lastTotal, model.prevProd, model.prevCons = r.lastProgress, r.lastTotal, r.prevProd, r.prevCons
	}
	var seen int64
	mismatches := 0
	pipe.Sim.OnEndCycle(func(cycle int64) {
		if got, want := pipe.Quiesced(), oldQuiesced(pipe, model.sigs); got != want && mismatches < 5 {
			mismatches++
			t.Errorf("cycle %d: Quiesced() = %v, the old clause order says %v", cycle, got, want)
		}
		model.check(cycle)
		since, fp, ok := pipe.Sim.WatchdogProgress()
		var e chkpt.Encoder
		pipe.Sim.SnapshotState(&e)
		sec := watchdogSection(t, e.Bytes())
		if (!ok || since != model.lastProgress || fp != model.lastTotal ||
			sec.lastProgress != model.lastProgress || sec.lastTotal != model.lastTotal ||
			sec.prevProd != model.prevProd || sec.prevCons != model.prevCons) && mismatches < 5 {
			mismatches++
			t.Errorf("cycle %d: watchdog (since %d, fingerprint %d; section %d/%d/%d/%d), the per-cycle walk says %d/%d/%d/%d",
				cycle, since, fp, sec.lastProgress, sec.lastTotal, sec.prevProd, sec.prevCons,
				model.lastProgress, model.lastTotal, model.prevProd, model.prevCons)
		}
		if n := eng.Count(); n != seen {
			seen = n
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out.captures = append(out.captures, capture{eng.LastCycle(), file})
		}
	})

	if restore != nil {
		err = pipe.ResumeContext(context.Background(), 500_000_000)
	} else {
		err = pipe.Run(cmds, 500_000_000)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	out.cycles = pipe.Cycles()
	for _, f := range pipe.Frames() {
		out.frames = append(out.frames, f.Pix)
	}
	var summary, csv bytes.Buffer
	if err := pipe.DumpStats(&summary); err != nil {
		t.Fatal(err)
	}
	if err := pipe.DumpCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out.summary, out.csv = summary.Bytes(), csv.Bytes()
	return out
}

// checkpointIdentity hashes what a checkpoint file says: its header
// (magic, version, payload CRC and length) and the payload the gzip
// stream holds. The compressed bytes themselves follow from those and
// the toolchain's deflate; the chkpt tests hold Encode to the bytes
// the old concatenating Encode wrote.
func checkpointIdentity(t *testing.T, h io.Writer, c capture) {
	t.Helper()
	const header = 10 + 4 + 4 + 8
	if len(c.file) < header {
		t.Fatalf("checkpoint at cycle %d is %d bytes", c.cycle, len(c.file))
	}
	zr, err := gzip.NewReader(bytes.NewReader(c.file[header:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	binary.Write(h, binary.LittleEndian, c.cycle)
	h.Write(c.file[:header])
	h.Write(payload)
}

// TestGoldenCheckpoints pins the checkpoint files of the
// TestGoldenFrames scenes run supervised: which cycles capture, and
// every byte the files say, computed at 91dbc46. Each scene is then
// restored from its middle capture and must finish exactly as the
// uninterrupted run did. The two spinner rows end before cycle 20000
// and take a shorter interval. ut2004-par2 is the benchmark's workload
// of that name, which still sets the ignored Workers: 2 (ROADMAP item
// 7): its files are ut2004-tex's, byte for byte.
func TestGoldenCheckpoints(t *testing.T) {
	pinned := map[string]struct {
		interval int64
		cycles   []int64
		sha      string
	}{
		"ut2004-tex": {20000, []int64{39895, 95851},
			"1b181cca910a43110823af84f01e82e9682d56040ba860debef8af274b8f20e6"},
		"doom3-stencil": {20000, []int64{69549, 111120},
			"129d95ca6a0cb1b5ca1d63946b5824ddbb0e3993d5cab5740e92ae31ab22d5f6"},
		"spinner-geom": {4000, []int64{9573},
			"2605ff41095dccffe3d7e0921f056b0c9a4c7270e93d9819770c099e43a07e6f"},
		"ut2004-par2": {20000, []int64{39895, 95851},
			"1b181cca910a43110823af84f01e82e9682d56040ba860debef8af274b8f20e6"},
		"ut2004-inorder": {20000, []int64{39208, 115384},
			"31c707d119449801b7c7a8caea5e8514656854936385cfc396a8fec14daba443"},
		"spinner-3f": {4000, []int64{9573, 14300, 19758},
			"cb57acf797db8d0346f2751028dddb341e09014f8ddfa4909c82ae5bff5ff1b8"},
		"doom3-2f": {20000, []int64{69549, 111120, 150043},
			"4ff55b8f5835370717cd8610cb69d5cc7a980e0f9e28a656710337cb182f06e3"},
		"ut2004-3f": {20000, []int64{39895, 95851, 155592, 212752},
			"e294ba368db5a0677a9ac1e1b63d99205a1565965be9e8bbe91b8e5d6a1a6f64"},
		"ut2004-1tu": {20000, []int64{39208, 122445, 210916},
			"444055dd4a4f2fe413e3cfc0f1d3b808630223b8c6f3da21e95e7c50fe026f4f"},
	}
	for _, c := range goldenScenes {
		t.Run(c.name, func(t *testing.T) {
			pin := pinned[c.name]
			ref := runSupervised(t, c, c.workers, pin.interval, nil)
			var cycles []int64
			h := sha256.New()
			for _, cp := range ref.captures {
				cycles = append(cycles, cp.cycle)
				checkpointIdentity(t, h, cp)
			}
			if !reflect.DeepEqual(cycles, pin.cycles) {
				t.Errorf("captured at cycles %v, pinned %v", cycles, pin.cycles)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha {
				t.Errorf("checkpoint sha256 = %s, pinned %s", got, pin.sha)
			}
			if len(ref.captures) == 0 {
				t.Fatal("no capture to restore from")
			}
			mid := ref.captures[len(ref.captures)/2]
			got := runSupervised(t, c, c.workers, pin.interval, mid.file)
			if got.cycles != ref.cycles {
				t.Errorf("restored at %d, finished on cycle %d, uninterrupted on %d", mid.cycle, got.cycles, ref.cycles)
			}
			if !reflect.DeepEqual(got.frames, ref.frames) {
				t.Errorf("frames differ after a restore at %d", mid.cycle)
			}
			if !bytes.Equal(got.summary, ref.summary) {
				t.Errorf("statistics summary differs after a restore at %d", mid.cycle)
			}
			if !bytes.Equal(got.csv, ref.csv) {
				t.Errorf("interval CSV differs after a restore at %d", mid.cycle)
			}
		})
	}
}

// Config.Workers is a vestige of the parallel clock loop (ROADMAP item
// 7): on the doom3 and ut2004 golden scenes a run that asks for 2 or 8
// workers writes the frames, summary, interval CSV and mid-run
// checkpoint files of the Workers: 0 run, byte for byte; a process
// warns once however many such pipelines it builds; and Validate still
// rejects a negative count.
func TestWorkersIsIgnored(t *testing.T) {
	var log bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&log, nil)))
	gpu.ResetWorkersWarning()
	for _, c := range goldenScenes {
		if c.name != "doom3-stencil" && c.name != "ut2004-tex" {
			continue
		}
		ref := runSupervised(t, c, 0, 20000, nil)
		if len(ref.captures) == 0 {
			t.Fatalf("%s: no mid-run checkpoint to compare", c.name)
		}
		for _, workers := range []int{2, 8} {
			got := runSupervised(t, c, workers, 20000, nil)
			if got.cycles != ref.cycles || !reflect.DeepEqual(got.frames, ref.frames) ||
				!bytes.Equal(got.summary, ref.summary) || !bytes.Equal(got.csv, ref.csv) ||
				!reflect.DeepEqual(got.captures, ref.captures) {
				t.Errorf("%s with Workers: %d: outputs differ from Workers: 0", c.name, workers)
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
