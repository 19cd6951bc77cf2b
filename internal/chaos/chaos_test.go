package chaos_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"attila/internal/chaos"
	"attila/internal/core"
	"attila/internal/gpu"
	"attila/internal/trace"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "seed=9,panic@cycle=500:Streamer,stall=DAC:10-20,mem=delay:0.25:16,signal=MC.CP.Reply@99,trace=flip:1234"
	p, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Errorf("seed = %d", p.Seed)
	}
	if p.Panic == nil || p.Panic.Cycle != 500 || p.Panic.Box != "Streamer" {
		t.Errorf("panic = %+v", p.Panic)
	}
	if p.Stall == nil || p.Stall.Box != "DAC" || p.Stall.From != 10 || p.Stall.To != 20 {
		t.Errorf("stall = %+v", p.Stall)
	}
	if p.Mem == nil || p.Mem.Mode != "delay" || p.Mem.Rate != 0.25 || p.Mem.Delay != 16 {
		t.Errorf("mem = %+v", p.Mem)
	}
	if p.Signal == nil || p.Signal.Name != "MC.CP.Reply" || p.Signal.Cycle != 99 {
		t.Errorf("signal = %+v", p.Signal)
	}
	if p.Trace == nil || p.Trace.Mode != "flip" || p.Trace.Offset != 1234 {
		t.Errorf("trace = %+v", p.Trace)
	}
	// String must render a spec that parses back to the same plan.
	again, err := chaos.Parse(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if again.String() != p.String() {
		t.Errorf("round trip drifted: %q vs %q", again.String(), p.String())
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := chaos.Parse("panic@cycle=100")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1 {
		t.Errorf("default seed = %d, want 1", p.Seed)
	}
	if p.Panic.Box != "CommandProcessor" {
		t.Errorf("default panic box = %q", p.Panic.Box)
	}
	p, err = chaos.Parse("mem=drop:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem.Delay != 64 {
		t.Errorf("default mem delay = %d, want 64", p.Mem.Delay)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                // empty
		"seed=5",          // no fault named
		"panic@cycle=abc", // bad cycle
		"panic@cycle=-1",  // negative cycle
		"stall=DAC",       // missing range
		"stall=:5-10",     // missing box
		"stall=DAC:9-5",   // end before start
		"mem=zap:0.5",     // unknown mode
		"mem=drop:1.5",    // rate out of range
		"mem=drop:0.5:0",  // zero delay
		"signal=pipe",     // missing cycle
		"trace=zip:10",    // unknown trace mode
		"trace=flip:x",    // bad offset
		"bogus=1",         // unknown fault
		"panic@cycle",     // not key=value
	} {
		if _, err := chaos.Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestCorruptReaderFlip(t *testing.T) {
	p, err := chaos.Parse("trace=flip:2")
	if err != nil {
		t.Fatal(err)
	}
	r := p.CorruptReader(strings.NewReader("abcdef"))
	if _, ok := r.(io.Seeker); ok {
		t.Error("corrupt reader must not be seekable")
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abCdef" {
		t.Errorf("flipped stream = %q, want abCdef", got)
	}
}

func TestCorruptReaderFlipAcrossReads(t *testing.T) {
	p, err := chaos.Parse("trace=flip:5")
	if err != nil {
		t.Fatal(err)
	}
	r := p.CorruptReader(strings.NewReader("abcdefgh"))
	var out []byte
	buf := make([]byte, 3) // offset 5 lands in the second read
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	if string(out) != "abcdeFgh" {
		t.Errorf("flipped stream = %q, want abcdeFgh", out)
	}
}

func TestCorruptReaderTrunc(t *testing.T) {
	p, err := chaos.Parse("trace=trunc:4")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(p.CorruptReader(strings.NewReader("abcdef")))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcd" {
		t.Errorf("truncated stream = %q, want abcd", got)
	}
}

// buildTrace serializes a small command stream and returns the full
// trace plus the offset of the first record byte.
func buildTrace(t *testing.T) (data []byte, firstRec int64) {
	t.Helper()
	hdr := trace.Header{Width: 16, Height: 16, Frames: 1, Label: "chaos"}
	var hdrOnly bytes.Buffer
	w, err := trace.NewWriter(&hdrOnly, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	firstRec = int64(hdrOnly.Len() - 1) // Close appended the end marker

	var full bytes.Buffer
	w, err = trace.NewWriter(&full, hdr)
	if err != nil {
		t.Fatal(err)
	}
	cmds := []gpu.Command{
		gpu.CmdClearColor{Value: [4]byte{1, 2, 3, 4}},
		gpu.CmdClearZS{Depth: 1, Stencil: 0},
		gpu.CmdSwap{},
	}
	if err := w.WriteCommands(cmds); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return full.Bytes(), firstRec
}

// A flipped record-type byte must surface as trace.ErrCorrupt through
// the real reader.
func TestTraceFaultFlip(t *testing.T) {
	data, firstRec := buildTrace(t)
	p, err := chaos.Parse("trace=flip:" + itoa(firstRec))
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(p.CorruptReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(0, -1); !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("got %v, want ErrCorrupt", err)
	}
}

// A truncated stream must surface as trace.ErrTruncated.
func TestTraceFaultTrunc(t *testing.T) {
	data, firstRec := buildTrace(t)
	p, err := chaos.Parse("trace=trunc:" + itoa(firstRec+2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(p.CorruptReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll(0, -1); !errors.Is(err, trace.ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func itoa(v int64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}

// Toy pipeline for the signal fault: a producer streams payloads to a
// consumer that dereferences each one, so a nil payload injected on
// the wire crashes the consumer — surfaced as core.ErrPanic naming it.
type payload struct {
	core.DynObject
	val int
}

type feeder struct {
	core.BoxBase
	out  *core.Signal
	ids  *core.IDSource
	sent int
}

func (f *feeder) Clock(cycle int64) {
	f.out.Write(cycle, &payload{core.DynObject{ID: f.ids.Next()}, f.sent})
	f.sent++
}

type sink struct {
	core.BoxBase
	in  *core.Signal
	got int
}

func (s *sink) Clock(cycle int64) {
	for _, o := range s.in.Read(cycle) {
		s.got += o.(*payload).val // panics on a nil payload
	}
}

func TestSignalFault(t *testing.T) {
	sim := core.NewSimulator(0)
	f := &feeder{ids: &sim.IDs}
	f.Init("Feeder")
	s := &sink{}
	s.Init("Sink")
	f.out = sim.Binder.Provide("Feeder", "pipe", 1, 2, 0)
	sim.Binder.Bind("Sink", "pipe", &s.in)
	sim.Register(f)
	sim.Register(s)
	sim.SetDone(func() bool { return false })

	plan, err := chaos.Parse("signal=pipe@50")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.NewInjector(plan, sim.Binder)
	sim.SetClockGate(inj)
	sim.OnEndCycle(inj.EndCycle)

	err = sim.Run(1000)
	if !errors.Is(err, core.ErrPanic) {
		t.Fatalf("got %v, want ErrPanic", err)
	}
	var ce *core.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("no CrashError in %v", err)
	}
	if ce.Box != "Sink" {
		t.Errorf("crashed box %q, want the consumer Sink", ce.Box)
	}
	if inj.Injected() != 1 {
		t.Errorf("injected %d faults, want 1", inj.Injected())
	}
}

// TestParseServerFleetFaults: the fleet-level faults (killhost,
// pauseheart, leaseyank) parse, render, and answer their accessors;
// malformed specs fail with a diagnostic.
func TestParseServerFleetFaults(t *testing.T) {
	spec := "seed=9,killhost=peer-2@5000,pauseheart=peer-1@3000:1500ms,leaseyank=conv-3"
	p, err := chaos.ParseServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Errorf("seed %d, want 9", p.Seed)
	}
	if f := p.KillHostFor("peer-2"); f == nil || f.Cycle != 5000 {
		t.Errorf("killhost fault %+v, want peer-2@5000", f)
	}
	if p.KillHostFor("peer-1") != nil {
		t.Error("killhost matched the wrong peer")
	}
	if f := p.PauseHeartFor("peer-1"); f == nil || f.Cycle != 3000 || f.Dur != 1500*time.Millisecond {
		t.Errorf("pauseheart fault %+v, want peer-1@3000:1.5s", f)
	}
	if !p.LeaseYankFor("conv-3") || p.LeaseYankFor("conv-1") {
		t.Error("leaseyank accessor wrong")
	}
	round, err := chaos.ParseServer(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if round.String() != p.String() {
		t.Errorf("round trip %q != %q", round.String(), p.String())
	}

	for _, bad := range []string{
		"killhost=peer-2",          // no cycle
		"killhost=@500",            // no peer
		"pauseheart=peer-1@3000",   // no duration
		"pauseheart=peer-1@x:1s",   // bad cycle
		"pauseheart=peer-1@10:-1s", // negative duration
		"leaseyank=",               // no job
	} {
		if _, err := chaos.ParseServer(bad); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}

	// A nil plan answers no on everything.
	var nilPlan *chaos.ServerPlan
	if nilPlan.KillHostFor("p") != nil || nilPlan.PauseHeartFor("p") != nil || nilPlan.LeaseYankFor("j") {
		t.Error("nil plan reported a fault")
	}
}
