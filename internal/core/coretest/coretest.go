// Package coretest holds test helpers for code that runs the clock loop:
// a goroutine count, and the differential oracle that holds every park
// and wake to the every-box-every-cycle loop.
package coretest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"attila/internal/chkpt"
	"attila/internal/core"
	"attila/internal/obsv"
)

// Goroutines returns how many live goroutines code of this module
// started: those a goroutine profile shows as "created by attila/...".
// A run's context watcher and shader helper count; the test framework's
// goroutines and the runtime's own (the finalizer goroutine while it
// runs a finalizer, timers) do not, so the number moves only with what
// the code under test starts and stops.
func Goroutines(tb testing.TB) int {
	tb.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		tb.Fatal(err)
	}
	return bytes.Count(buf.Bytes(), []byte("\ncreated by attila/"))
}

// PassAll is the pass-everything clock gate. While a gate is installed
// no box parks and no counter accrues, so a run under PassAll is the
// every-box-every-cycle loop a parked run must be indistinguishable from.
type PassAll struct{}

func (PassAll) BeforeClock(int64, core.Box) bool { return true }

// A Machine is one freshly built machine of a scenario, not yet run.
type Machine struct {
	Sim *core.Simulator
	// Run runs the machine from its first cycle to its end.
	Run func() error
	// Frames, when set, returns what the run rendered, or whatever else
	// the machine keeps for a reader; it is compared at the end of every
	// run.
	Frames func() [][]byte
	// Checkpoints, when set, is the engine that captures the run into
	// the file Path. Restore then loads a capture's file into a fresh
	// machine, and Resume runs the restored machine to its end.
	Checkpoints *chkpt.Engine
	Path        string
	Restore     func(file []byte) error
	Resume      func() error
	// NoFinalCapture says the engine takes no capture after the last
	// command, as a gpu.Pipeline's does: Diff then holds it to declining
	// the capture it asks for at the final barrier, instead of to taking
	// it.
	NoFinalCapture bool
	// Fixtures are checkpoint files of this machine's run that an older
	// binary wrote, each restored like a capture: one at the final
	// barrier restores what a machine that declines to capture there
	// cannot write.
	Fixtures [][]byte
}

// A Scenario builds a fresh machine on every call: the parked one
// first, then the one clocked under PassAll, then one per restore.
type Scenario func(tb testing.TB) *Machine

// A Capture is one checkpoint a run wrote.
type Capture struct {
	Cycle int64 // the barrier it was captured at
	File  []byte
	chain uint64 // Outputs.Barriers up to and including that barrier
}

// Outputs is everything a run leaves for a reader.
type Outputs struct {
	Cycles int64
	// Err is the run's error, with a deadlock's report.
	Err string
	// Barriers hashes, at every barrier, every statistic, the
	// watchdog's progress (WatchdogProgress) and every signal's traffic:
	// a counter credited a cycle late, or an object sent or read a cycle
	// late, shows here whatever the interval. Box queue occupancy is
	// read only with the metrics windows: asked for at every barrier it
	// would cost more than the runs themselves.
	Barriers     uint64
	Summary, CSV []byte
	// Windows counts the metrics bus's windows, and NDJSON hashes their
	// NDJSON lines, written under a frozen clock.
	Windows  int
	NDJSON   uint64
	Frames   [][]byte
	Captures []Capture
}

// Diff runs the scenario parked and under PassAll, the every-box run
// also asked for a capture at the parked run's final barrier; then,
// when the machine checkpoints, it restores a fresh machine from every
// capture and every fixture and runs it to its end. It returns the
// parked run's outputs and every way the other runs differ from it: a
// restored run must end as the parked run did, on the same barriers on
// the way.
func Diff(tb testing.TB, s Scenario) (*Outputs, []string) {
	tb.Helper()
	first := s(tb)
	chains := map[int64]uint64{} // the parked run's Barriers at each fixture's cycle
	var fixtures []Capture
	for _, file := range first.Fixtures {
		snap, err := chkpt.Read(bytes.NewReader(file))
		if err != nil {
			tb.Fatal(err)
		}
		// A file holds the cycle after its barrier: the clock advances
		// before the barrier's hooks run.
		barrier := snap.Meta.Cycle - 1
		fixtures = append(fixtures, Capture{Cycle: barrier, File: file})
		chains[barrier] = 0
	}
	parked := record(tb, first, nil, -1, chains)
	m := s(tb)
	m.Sim.SetClockGate(PassAll{})
	every := record(tb, m, nil, parked.Cycles-2, nil)
	var forced []Capture
	if n := len(parked.Captures); len(every.Captures) > n {
		forced, every.Captures = every.Captures[n:], every.Captures[:n]
	}
	diffs := parked.Diff("with every box clocked", every)
	if m.Checkpoints == nil {
		return parked, diffs
	}
	captures, final := parked.Captures, parked.Cycles-1
	switch n := len(captures); {
	case m.NoFinalCapture:
		if len(forced) > 0 || n > 0 && captures[n-1].Cycle == final {
			diffs = append(diffs, fmt.Sprintf("a capture at the final barrier, cycle %d, of a machine that takes none there", final))
		}
	case n > 0 && captures[n-1].Cycle == final:
	case len(forced) > 0 && forced[0].Cycle == final:
		captures = append(captures[:n:n], forced[0])
	default:
		diffs = append(diffs, fmt.Sprintf("no capture at the final barrier, cycle %d", final))
	}
	for _, f := range fixtures {
		if f.chain = chains[f.Cycle]; f.chain == 0 {
			diffs = append(diffs, fmt.Sprintf("a fixture at cycle %d, not a barrier of the run", f.Cycle))
			continue
		}
		captures = append(captures[:len(captures):len(captures)], f)
	}
	for _, c := range captures {
		restored := record(tb, s(tb), &c, -1, nil)
		restored.Windows, restored.NDJSON, restored.Captures = parked.Windows, parked.NDJSON, parked.Captures
		diffs = append(diffs, parked.Diff(fmt.Sprintf("restored at cycle %d", c.Cycle), restored)...)
	}
	return parked, diffs
}

// Check is Diff that fails tb with every difference, and with the
// parked run's error.
func Check(tb testing.TB, s Scenario) *Outputs {
	tb.Helper()
	out, diffs := Diff(tb, s)
	if out.Err != "" {
		diffs = append(diffs, "the run failed: "+out.Err)
	}
	for _, d := range diffs {
		tb.Error(d)
	}
	return out
}

// Record runs a built machine from its first cycle and returns what it
// left.
func Record(tb testing.TB, m *Machine) *Outputs {
	tb.Helper()
	return record(tb, m, nil, -1, nil)
}

// record runs m, restored from a capture when from is set, and at the
// barrier forceAt asks its checkpoint engine for a capture at the next.
// It notes Barriers in chains at every barrier chains has a key for.
func record(tb testing.TB, m *Machine, from *Capture, forceAt int64, chains map[int64]uint64) *Outputs {
	tb.Helper()
	out := &Outputs{Barriers: 14695981039346656037} // FNV-1a's offset basis; its prime below
	nd := fnv.New64a()
	if from != nil {
		// A restored run's bus would start empty, and its engine's
		// interval over: it reads no windows and captures nothing.
		out.Barriers = from.chain
		if m.Checkpoints != nil {
			m.Checkpoints.Interval = 0
		}
	} else {
		frozen := time.Unix(1000, 0)
		bus := obsv.NewBus(m.Sim, obsv.BusOptions{Depth: 1, Now: func() time.Time { return frozen }})
		enc := json.NewEncoder(nd)
		m.Sim.Stats.OnRow(func(int64, []float64, bool) { // after the bus's own reader
			if err := enc.Encode(bus.Snapshot()[0]); err != nil {
				tb.Fatal(err)
			}
			out.Windows++
		})
	}
	stats, sigs := m.Sim.Stats.Registered(), m.Sim.Binder.Signals()
	var seen int64
	m.Sim.OnEndCycle(func(cycle int64) {
		fold := func(v uint64) { out.Barriers = (out.Barriers ^ v) * 1099511628211 }
		for _, s := range stats {
			fold(math.Float64bits(s.Value()))
		}
		since, fp, _ := m.Sim.WatchdogProgress()
		fold(uint64(since))
		fold(fp)
		for _, sig := range sigs {
			p, c := sig.Traffic()
			fold(p)
			fold(c)
		}
		if _, ok := chains[cycle]; ok {
			chains[cycle] = out.Barriers
		}
		eng := m.Checkpoints
		if eng == nil {
			return
		}
		if n := eng.Count(); n != seen {
			seen = n
			file, err := os.ReadFile(m.Path)
			if err != nil {
				tb.Fatal(err)
			}
			out.Captures = append(out.Captures, Capture{eng.LastCycle(), file, out.Barriers})
		}
		if cycle == forceAt {
			eng.ForceNext()
		}
	})

	var err error
	if from != nil {
		if err := m.Restore(from.File); err != nil {
			tb.Fatal(err)
		}
		err = m.Resume()
	} else {
		err = m.Run()
	}
	if err != nil {
		out.Err = err.Error()
		if de := (*core.DeadlockError)(nil); errors.As(err, &de) {
			out.Err += "\n" + de.Report.String()
		}
	}
	if m.Checkpoints != nil {
		if err := m.Checkpoints.Err(); err != nil {
			tb.Fatal(err)
		}
	}
	out.Cycles, out.NDJSON = m.Sim.Cycle(), nd.Sum64()
	var summary, csv bytes.Buffer
	if err := m.Sim.Stats.WriteSummary(&summary); err != nil {
		tb.Fatal(err)
	}
	if err := m.Sim.Stats.WriteCSV(&csv); err != nil {
		tb.Fatal(err)
	}
	out.Summary, out.CSV = summary.Bytes(), csv.Bytes()
	if m.Frames != nil {
		out.Frames = m.Frames()
	}
	return out
}

// Diff names every output in which run, described by label, differs
// from o.
func (o *Outputs) Diff(label string, run *Outputs) []string {
	var diffs []string
	differ := func(same bool, format string, args ...any) {
		if !same {
			diffs = append(diffs, fmt.Sprintf(format, args...)+" "+label)
		}
	}
	differ(run.Cycles == o.Cycles, "%d cycles, not %d,", run.Cycles, o.Cycles)
	differ(run.Err == o.Err, "run error %q, not %q,", run.Err, o.Err)
	differ(run.Barriers == o.Barriers, "some statistic, watchdog fingerprint or signal traffic at some barrier differs")
	differ(bytes.Equal(run.Summary, o.Summary), "statistics summary differs")
	differ(bytes.Equal(run.CSV, o.CSV), "interval CSV differs (%s)", firstLine(run.CSV, o.CSV))
	differ(run.Windows == o.Windows && run.NDJSON == o.NDJSON, "metrics NDJSON (%d windows, not %d) differs", run.Windows, o.Windows)
	differ(len(run.Frames) == len(o.Frames), "%d frames, not %d,", len(run.Frames), len(o.Frames))
	for i := range min(len(run.Frames), len(o.Frames)) {
		differ(bytes.Equal(run.Frames[i], o.Frames[i]), "frame %d differs", i)
	}
	differ(len(run.Captures) == len(o.Captures), "%d checkpoints, not %d,", len(run.Captures), len(o.Captures))
	for i := range min(len(run.Captures), len(o.Captures)) {
		got, want := run.Captures[i], o.Captures[i]
		differ(got.Cycle == want.Cycle && bytes.Equal(got.File, want.File),
			"checkpoint %d (cycle %d, not %d) differs", i, got.Cycle, want.Cycle)
	}
	return diffs
}

// firstLine names the first line of got that differs from want.
func firstLine(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
